package dne

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// FuzzCheckpointReader fuzzes the DNB1 and DNC1 decoders, which face bytes
// from disk: each input is stored as both a base and a state file of one
// rank and loaded through LoadBase and LoadState. Either load decodes to
// contents that WriteBase or WriteState encode to the same bytes, or it
// returns an error. Neither panics, and each allocates in proportion to
// the input, not to the section counts it declares.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzCheckpointReader -fuzztime=30s ./internal/dne
func FuzzCheckpointReader(f *testing.F) {
	c := testCkpt(f, DefaultConfig())
	if err := c.WriteBase(999, 1234, []uint64{1, 2, 3, 1 << 40}); err != nil {
		f.Fatal(err)
	}
	if err := c.WriteState(sampleState(3)); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{c.basePath(), c.statePath(3)} {
		full, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(full)
		for _, cut := range []int{0, 20, 7 * 8, 12 * 8, 12*8 + 8, len(full) / 2, len(full) - 8, len(full) - 1} {
			f.Add(full[:cut])
		}
		f.Add(append(bytes.Clone(full), 0))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := testCkpt(t, DefaultConfig())
		for _, path := range []string{c.basePath(), c.statePath(3)} {
			if err := os.WriteFile(path, data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		limit := uint64(4<<20 + 256*len(data))
		var before, after runtime.MemStats

		runtime.ReadMemStats(&before)
		nv, te, packed, err := c.LoadBase()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("LoadBase of %d bytes allocated %d bytes, over %d", len(data), grew, limit)
		}
		if err == nil {
			out := testCkpt(t, DefaultConfig())
			if err := out.WriteBase(nv, te, packed); err != nil {
				t.Fatal(err)
			}
			reencoded(t, out.basePath(), data)
		} else if err.Error() == "" {
			t.Fatal("empty LoadBase error message")
		}

		runtime.ReadMemStats(&before)
		st, err := c.LoadState(3)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("LoadState of %d bytes allocated %d bytes, over %d", len(data), grew, limit)
		}
		if err == nil {
			out := testCkpt(t, DefaultConfig())
			if err := out.WriteState(st); err != nil {
				t.Fatal(err)
			}
			reencoded(t, out.statePath(3), data)
		} else if err.Error() == "" {
			t.Fatal("empty LoadState error message")
		}
	})
}

// reencoded fails t unless the file at path holds exactly data.
func reencoded(t *testing.T, path string, data []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(got))
	}
}
