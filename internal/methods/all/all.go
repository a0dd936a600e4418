// Package all links every partitioning method into the binary: blank-
// importing it triggers each method package's init-time Register call.
// CLIs, the HTTP server and tests import it for the full registry; a
// downstream embedder that wants a smaller binary imports only the method
// packages it needs.
package all

import (
	_ "github.com/distributedne/dne/internal/dne"
	_ "github.com/distributedne/dne/internal/hashpart"
	_ "github.com/distributedne/dne/internal/lppart"
	_ "github.com/distributedne/dne/internal/metispart"
	_ "github.com/distributedne/dne/internal/nepart"
	_ "github.com/distributedne/dne/internal/sheep"
	_ "github.com/distributedne/dne/internal/streampart"
)
