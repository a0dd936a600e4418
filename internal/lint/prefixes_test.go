package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDeterministicPrefixesExist fails on an entry that names no directory
// under the module root: after a package is deleted or moved its entry
// would silently match nothing.
func TestDeterministicPrefixesExist(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deterministicPrefixes {
		fi, err := os.Stat(filepath.Join(loader.modRoot, filepath.FromSlash(p)))
		if err != nil || !fi.IsDir() {
			t.Errorf("deterministicPrefixes entry %q is not a directory under the module root", p)
		}
	}
}
