// Package a plants one exported function of each kind the surface scanner
// must tell apart.
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

// Local is called from its own package.
func Local() int { return 2 }

// Cross is called from another package.
func Cross() int {
	TestOnly := 3 // a local shadowing a function is not a call
	return Local() + TestOnly
}
