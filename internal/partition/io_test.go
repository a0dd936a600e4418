package partition

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

func samplePartitioning() *Partitioning {
	p := New(4, 6)
	copy(p.Owner, []int32{0, 1, 2, 3, 0, None})
	return p
}

func TestBinaryRoundTrip(t *testing.T) {
	p := samplePartitioning()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParts != p.NumParts || len(got.Owner) != len(p.Owner) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.NumParts, len(got.Owner), p.NumParts, len(p.Owner))
	}
	for i := range p.Owner {
		if got.Owner[i] != p.Owner[i] {
			t.Fatalf("owner[%d] = %d, want %d", i, got.Owner[i], p.Owner[i])
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	p := samplePartitioning()
	var buf bytes.Buffer
	if err := WriteText(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Owner {
		if got.Owner[i] != p.Owner[i] {
			t.Fatalf("owner[%d] = %d, want %d", i, got.Owner[i], p.Owner[i])
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a partitioning file")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
}

func TestReadBinaryRejectsOutOfRangeOwner(t *testing.T) {
	p := samplePartitioning()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, p); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the first owner to 99 (> numParts).
	b[16] = 99
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Error("out-of-range owner accepted")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"0 1\n",                          // data before header
		"# parts=4 edges=2\n0 1\n5 2\n",  // index out of range
		"# parts=4 edges=2\n0 9\n",       // owner out of range
		"# parts=4 edges=2\nzero one\n",  // non-numeric
		"# parts=4 edges=2\n0 1 extra\n", // wrong field count
		"",                               // empty
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestReadTextMissingLinesStayNone(t *testing.T) {
	got, err := ReadText(strings.NewReader("# parts=2 edges=3\n1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner[0] != None || got.Owner[1] != 0 || got.Owner[2] != None {
		t.Fatalf("owners %v", got.Owner)
	}
}

// TestReadBinaryRejectsTruncation: every strict prefix errors.
func TestReadBinaryRejectsTruncation(t *testing.T) {
	p := New(4, 1000)
	for i := range p.Owner {
		p.Owner[i] = int32(i % 4)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, p); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 8, 15, 16, 18, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestReadBinaryHostileHeader: absurd part/edge counts must error (on the
// bound check or the short read) without a huge up-front allocation.
func TestReadBinaryHostileHeader(t *testing.T) {
	mk := func(parts uint32, edges uint64) []byte {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], binMagic)
		binary.LittleEndian.PutUint32(hdr[4:], parts)
		binary.LittleEndian.PutUint64(hdr[8:], edges)
		return append(hdr[:], make([]byte, 64)...)
	}
	if _, err := ReadBinary(bytes.NewReader(mk(1<<30, 4))); err == nil {
		t.Error("absurd part count accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(mk(4, 1<<40))); err == nil {
		t.Error("hostile edge count accepted")
	}
}

// TestBinaryLargeRoundTrip crosses binio's 32 KiB write and read pages
// (8 192 owners each) so the batched flush and refill paths are exercised.
func TestBinaryLargeRoundTrip(t *testing.T) {
	p := New(7, 2*8192+100)
	for i := range p.Owner {
		if i%11 == 0 {
			p.Owner[i] = None
		} else {
			p.Owner[i] = int32(i % 7)
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParts != p.NumParts || len(got.Owner) != len(p.Owner) {
		t.Fatalf("shape mismatch")
	}
	for i := range p.Owner {
		if got.Owner[i] != p.Owner[i] {
			t.Fatalf("owner[%d] = %d, want %d", i, got.Owner[i], p.Owner[i])
		}
	}
}

func TestQuickBinaryRoundTripAnyOwners(t *testing.T) {
	f := func(raw []uint8, partsRaw uint8) bool {
		parts := int(partsRaw%16) + 1
		p := New(parts, int64(len(raw)))
		for i, r := range raw {
			if r%5 == 0 {
				p.Owner[i] = None
			} else {
				p.Owner[i] = int32(int(r) % parts)
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, p); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		for i := range p.Owner {
			if got.Owner[i] != p.Owner[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
