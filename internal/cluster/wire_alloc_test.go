//go:build !race

package cluster

import "testing"

// Allocation counts hold only without the race detector, whose
// instrumentation allocates the temporary slices.Grow otherwise avoids.

// TestAppendMessageGrowsOnce: a large body appended to an empty buffer costs
// one allocation, the whole frame, however its AppendWire writes.
func TestAppendMessageGrowsOnce(t *testing.T) {
	n := (frameBufSize - headerBytes) / 12
	var body WireBody = KeyedBody{Keys: make([]uint64, n), Vals: make([]int32, n)}
	var frame []byte
	allocs := testing.AllocsPerRun(10, func() {
		frame = appendMessage(nil, 0, 1, tagCollData, 1, body)
	})
	if allocs != 1 {
		t.Errorf("appending a %d-byte body allocated %v times, want 1", body.WireSize(), allocs)
	}
	if len(frame) != headerBytes+body.WireSize() || cap(frame) > frameBufSize+frameBufSize/4 {
		t.Errorf("frame of %d bytes in a buffer of %d", len(frame), cap(frame))
	}
}
