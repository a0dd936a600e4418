package dsa

// SplitMix64 is the SplitMix64 finalizer (public-domain constants): a
// cheap, well-mixed 64-bit hash. Grid owners, hash partitioners, shard
// routing and injected faults all derive from it, so their outputs are
// pinned by the determinism goldens: the constants never change.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
