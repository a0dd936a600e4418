package live

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/distributedne/dne/internal/dynpart"
	"github.com/distributedne/dne/internal/gen"
)

// liveDirLogs returns the four log files of a closed numParts-partition
// live directory with churn behind it: part-0000, dead-0000, part-0001 and
// dead-0001, nil where the directory has no such file.
func liveDirLogs(t testing.TB, numParts int) [4][]byte {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Config{NumParts: numParts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(dynpart.Churn(gen.ER(40, 120, 2), 300, 0.3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var out [4][]byte
	for i := range out {
		b, err := os.ReadFile(logPath(dir, [2]string{"part", "dead"}[i%2], i/2))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// FuzzLiveOpen fuzzes Open over one- and two-partition live directories,
// whose logs face bytes from disk. The arguments are the contents of
// part-0000.esh, dead-0000.esh, part-0001.esh and dead-0001.esh; an empty
// one leaves that file out. Open either errors or yields a placement state
// that passes CheckInvariants and that a Close and a second Open reproduce
// checksum for checksum. It never panics.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzLiveOpen -fuzztime=30s ./internal/live
func FuzzLiveOpen(f *testing.F) {
	one, two := liveDirLogs(f, 1), liveDirLogs(f, 2)
	f.Add(one[0], one[1], one[2], one[3])
	f.Add(two[0], two[1], two[2], two[3])
	part := two[0]
	for _, cut := range []int{0, 15, 28, len(part) / 2, len(part) - 8, len(part) - 1} {
		f.Add(part[:cut], two[1], two[2], two[3])
	}
	f.Add(append(bytes.Clone(part), 0), two[1], two[2], two[3])

	f.Fuzz(func(t *testing.T, part0, dead0, part1, dead1 []byte) {
		dir := t.TempDir()
		for i, b := range [][]byte{part0, dead0, part1, dead1} {
			if len(b) == 0 {
				continue
			}
			if err := os.WriteFile(logPath(dir, [2]string{"part", "dead"}[i%2], i/2), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Config{})
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if err := l.State().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		live, st := l.Checksum(), l.State().Checksum()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Config{})
		if err != nil {
			t.Fatalf("reopening an opened directory: %v", err)
		}
		defer l.Close()
		if l.Checksum() != live || l.State().Checksum() != st {
			t.Fatalf("reopened to %#x/%#x, first open %#x/%#x", l.Checksum(), l.State().Checksum(), live, st)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
			t.Fatalf("left behind %v", left)
		}
	})
}
