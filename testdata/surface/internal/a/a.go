// Package a plants one exported function or method of each kind the surface
// scanner must tell apart.
package a

// Uncalled has no caller but itself.
func Uncalled(n int) int {
	if n == 0 {
		return 0
	}
	return Uncalled(n - 1)
}

// TestOnly is called only from a test file.
func TestOnly() int { return 1 }

// ExampleOnly is called only from an example.
func ExampleOnly() int { return 9 }

// Local is called from its own package.
func Local() int { return 2 }

// Cross is called from another package.
func Cross() int {
	TestOnly := 3 // a local shadowing a function is not a call
	return Local() + TestOnly
}

// T has a method that only a test calls.
type T struct{}

// TestOnly is called only from a test file.
func (T) TestOnly() int { return 4 }

// Left and Right share a method name; only Left's is called.
type Left struct{}

// Size is called from another package.
func (Left) Size() int { return 5 }

// Right is never used.
type Right struct{}

// Size shares its name with Left.Size but has no caller.
func (Right) Size() int { return 6 }

// Shape is a module interface: Area is called through it, Perimeter is not.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square implements Shape.
type Square struct{}

// Area is reached only through Shape.Area.
func (Square) Area() int { return 7 }

// Perimeter exists only to satisfy Shape.Perimeter, which nothing calls.
func (Square) Perimeter() int { return 8 }

// Framed wraps a Shape and forwards to it.
type Framed struct{ Shape }

// Perimeter forwards to the wrapped Shape; the forwarding call does not keep
// Shape.Perimeter alive, since nothing calls Framed.Perimeter.
func (f Framed) Perimeter() int { return f.Shape.Perimeter() + 1 }

// Name is printed through fmt, which reaches String via fmt.Stringer.
type Name string

// String is called only by fmt.
func (n Name) String() string { return "name " + string(n) }
