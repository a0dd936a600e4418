package cluster

// Collectives built from point-to-point messages so that their communication
// volume is accounted like everything else. All machines must call the same
// collective in the same order (standard MPI contract).

// AllGatherSum returns the sum of x across all machines, at every machine.
// Implemented as a reduce-to-root followed by a broadcast.
func AllGatherSum(c Comm, x int64) int64 {
	if c.Size() == 1 {
		return x
	}
	if c.Rank() == 0 {
		sum := x
		for i := 1; i < c.Size(); i++ {
			m := c.Recv(tagReduce)
			sum += int64(m.Body.(Int64Body))
		}
		for i := 1; i < c.Size(); i++ {
			c.Send(i, tagBcast, Int64Body(sum))
		}
		return sum
	}
	c.Send(0, tagReduce, Int64Body(x))
	return int64(c.Recv(tagBcast).Body.(Int64Body))
}

// AllGatherMin returns the minimum of x across all machines, at every machine.
func AllGatherMin(c Comm, x int64) int64 {
	if c.Size() == 1 {
		return x
	}
	if c.Rank() == 0 {
		min := x
		for i := 1; i < c.Size(); i++ {
			m := c.Recv(tagReduce)
			if v := int64(m.Body.(Int64Body)); v < min {
				min = v
			}
		}
		for i := 1; i < c.Size(); i++ {
			c.Send(i, tagBcast, Int64Body(min))
		}
		return min
	}
	c.Send(0, tagReduce, Int64Body(x))
	return int64(c.Recv(tagBcast).Body.(Int64Body))
}

// Int64SliceBody carries a vector of int64 (per-partition sizes etc.).
type Int64SliceBody []int64

// WireSize implements Body.
func (b Int64SliceBody) WireSize() int { return 8 * len(b) }

// AllGatherSumVec element-wise sums vector x across machines; every machine
// receives the full sum vector. x is not mutated.
func AllGatherSumVec(c Comm, x []int64) []int64 {
	if c.Size() == 1 {
		out := make([]int64, len(x))
		copy(out, x)
		return out
	}
	if c.Rank() == 0 {
		sum := make([]int64, len(x))
		copy(sum, x)
		for i := 1; i < c.Size(); i++ {
			m := c.Recv(tagReduce)
			for j, v := range m.Body.(Int64SliceBody) {
				sum[j] += v
			}
		}
		for i := 1; i < c.Size(); i++ {
			c.Send(i, tagBcast, Int64SliceBody(sum))
		}
		return sum
	}
	c.Send(0, tagReduce, Int64SliceBody(x))
	in := c.Recv(tagBcast).Body.(Int64SliceBody)
	out := make([]int64, len(in))
	copy(out, in)
	return out
}
