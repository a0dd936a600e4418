package main

import (
	"fmt"

	"example.com/surface/internal/a"
)

func main() { fmt.Println(a.Cross()) }
