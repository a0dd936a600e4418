package dne

// The expansion process's boundary — the priority queue of ⟨Drest(v), v⟩
// pairs of Alg. 1 / Alg. 4, with lazy score refresh — is dsa.Boundary: flat
// epoch-stamped slabs indexed by vertex id plus a monomorphic 4-ary min-heap,
// shared with the sequential NE partitioner
// (internal/nepart). The map/container-heap implementation it replaced is
// preserved as the differential-test reference in internal/dsa, which
// asserts identical pop order on randomized update/pop sequences.
