package dne

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/distributedne/dne/internal/cluster"
	_ "github.com/distributedne/dne/internal/lppart" // registers its body kinds, so "every kind" below means every kind in the repo
)

// wireSamples covers every body this package sends, at the edges of its
// encoding: nil and empty slices, the largest partition id, negative counts.
// The result collection sends cluster.KeyedBody chunks (cluster.GatherKeyed).
func wireSamples() []cluster.WireBody {
	maxP := int32(math.MaxInt32)
	return []cluster.WireBody{
		selectBody{},
		selectBody{Pairs: []vp{}, Cancel: true},
		selectBody{Pairs: []vp{{V: 0, P: 0}, {V: math.MaxUint32, P: maxP}}, SeedReq: true, SeedPart: maxP},
		selectBody{Pairs: []vp{{V: 1, P: -1}}, Cancel: true, SeedReq: true, SeedPart: -1},
		syncBody{},
		syncBody{Pairs: []vp{{V: 7, P: maxP}, {V: 8, P: -1}}},
		syncBody{Pairs: []vp{}},
		stepBody{},
		stepBody{PerPart: []int64{}, Free: -1},
		stepBody{
			Items:   []boundaryItem{{V: math.MaxUint32, Drest: math.MinInt32}, {V: 1, Drest: 2}},
			PerPart: []int64{0, math.MaxInt64, 3, 4},
			Free:    math.MaxInt64,
		},
		stepBody{Items: []boundaryItem{{V: 5, Drest: 6}}, PerPart: []int64{9}},
		cluster.KeyedBody{},
		cluster.KeyedBody{Keys: []uint64{math.MaxUint64, 1}, Vals: []int32{0, maxP}},
		cluster.KeyedBody{Keys: []uint64{0}, Vals: []int32{-1}},
	}
}

// sameBody compares two bodies field by field, treating a nil slice and an
// empty one as the same message.
func sameBody(a, b cluster.Body) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice && fa.Len() == 0 && fb.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

// TestWireSizeIsEncodedSize: the bytes a body accounts are the bytes its
// encoder writes, and decoding them gives the body back.
func TestWireSizeIsEncodedSize(t *testing.T) {
	seen := map[uint8]bool{}
	for _, b := range wireSamples() {
		seen[b.WireKind()] = true
		payload := b.AppendWire(nil)
		if len(payload) != b.WireSize() {
			t.Errorf("%#v: encoder wrote %d bytes, WireSize() = %d", b, len(payload), b.WireSize())
		}
		// Appending must leave what is already in the buffer alone.
		if withPrefix := b.AppendWire([]byte{0xaa, 0xbb}); !bytes.Equal(withPrefix[2:], payload) || withPrefix[0] != 0xaa {
			t.Errorf("%#v: AppendWire depends on or clobbers its destination", b)
		}
		got, err := cluster.DecodeWire(b.WireKind(), payload)
		if err != nil {
			t.Errorf("%#v: %v", b, err)
			continue
		}
		if !sameBody(got, b) {
			t.Errorf("round trip of %#v gave %#v", b, got)
		}
	}
	for _, kind := range []uint8{kindSelect, kindSync, kindStep, cluster.KeyedBody{}.WireKind()} {
		if !seen[kind] {
			t.Errorf("no sample of body kind %d", kind)
		}
	}
}

// checkDecode is the property every registered decoder must have, for any
// bytes: it either rejects the payload or returns a body that encodes back
// to exactly those bytes and accounts exactly their length.
func checkDecode(t *testing.T, kind uint8, payload []byte) (ok bool) {
	t.Helper()
	body, err := cluster.DecodeWire(kind, payload)
	if err != nil {
		return false
	}
	wb, isWire := body.(cluster.WireBody)
	if !isWire || wb.WireKind() != kind {
		t.Fatalf("kind %d decoded to %T, which is not a WireBody of that kind", kind, body)
	}
	if body.WireSize() != len(payload) {
		t.Fatalf("kind %d: WireSize() = %d for a %d-byte payload", kind, body.WireSize(), len(payload))
	}
	if again := wb.AppendWire(nil); !bytes.Equal(again, payload) {
		t.Fatalf("kind %d: payload %x re-encodes as %x", kind, payload, again)
	}
	return true
}

// TestEveryRegisteredKindRoundTrips needs no per-kind table: it feeds every
// registered decoder zeroed and random payloads of every small length.
func TestEveryRegisteredKindRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := cluster.WireKinds()
	if len(kinds) < 9 {
		t.Fatalf("only %d body kinds registered: %v", len(kinds), kinds)
	}
	for _, kind := range kinds {
		accepted := 0
		for n := 0; n <= 96; n++ {
			payload := make([]byte, n)
			if checkDecode(t, kind, payload) {
				accepted++
			}
			rng.Read(payload)
			if checkDecode(t, kind, payload) {
				accepted++
			}
		}
		if accepted == 0 {
			t.Errorf("kind %d accepted no payload at all", kind)
		}
	}
	if _, err := cluster.DecodeWire(255, nil); err == nil {
		t.Error("unregistered kind 255 decoded")
	}
}

func TestDecodersRejectMalformedPayloads(t *testing.T) {
	step := stepBody{Items: []boundaryItem{{V: 1, Drest: 1}}, PerPart: []int64{1, 2}}.AppendWire(nil)
	patched := func(off int, v byte) []byte {
		p := bytes.Clone(step)
		p[off] = v
		return p
	}
	cases := []struct {
		name    string
		kind    uint8
		payload []byte
	}{
		{"select shorter than its fixed fields", kindSelect, make([]byte, 5)},
		{"select with half a pair", kindSelect, make([]byte, 6+4)},
		{"select with a flag byte of 2", kindSelect, []byte{2, 0, 0, 0, 0, 0}},
		{"sync of 9 bytes", kindSync, make([]byte, 9)},
		{"step shorter than its count and Free", kindStep, make([]byte, 8)},
		{"step of 16 bytes", kindStep, make([]byte, 16)},
		{"step whose item count overruns the payload", kindStep, patched(0, 200)},
		{"step whose item count is the largest u32", kindStep, append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 8)...)},
		{"the retired whole-graph result kind", 19, make([]byte, 12)},
		{"the retired whole-run result kind", 20, make([]byte, 12)},
		{"keyed chunk of 8 bytes", cluster.KeyedBody{}.WireKind(), make([]byte, 8)},
	}
	for _, tc := range cases {
		if body, err := cluster.DecodeWire(tc.kind, tc.payload); err == nil {
			t.Errorf("%s: decoded as %#v", tc.name, body)
		}
	}
}

func FuzzBodyDecode(f *testing.F) {
	for _, b := range wireSamples() {
		payload := b.AppendWire(nil)
		f.Add(b.WireKind(), payload)
		f.Add(b.WireKind(), payload[:len(payload)/2])
		f.Add(b.WireKind(), append(payload, 0))
	}
	for _, kind := range cluster.WireKinds() {
		f.Add(kind, []byte{})
		f.Add(kind, make([]byte, 24))
		f.Add(kind, bytes.Repeat([]byte{0xff}, 40))
	}
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		checkDecode(t, kind, payload)
	})
}
