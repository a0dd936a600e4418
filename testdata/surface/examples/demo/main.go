// Command demo is an example: it demonstrates the surface, and its calls do
// not count as callers.
package main

import (
	"fmt"

	"example.com/surface/internal/a"
)

func main() {
	fmt.Println(a.ExampleOnly())
}
