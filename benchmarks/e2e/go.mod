module github.com/distributedne/dne/benchmarks/e2e

go 1.22

require github.com/distributedne/dne v0.0.0

replace github.com/distributedne/dne => ../..
