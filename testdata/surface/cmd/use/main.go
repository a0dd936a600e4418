package main

import (
	"fmt"

	"example.com/surface/internal/a"
)

func main() {
	var s a.Shape = a.Framed{Shape: a.Square{}}
	fmt.Println(a.Cross(), a.Left{}.Size(), s.Area(), a.Name("x"))
}
