package live

import (
	"fmt"
	"sync/atomic"
)

// liveObs aggregates process-cumulative crash-recovery events, exposed via
// RegisterMetrics.
var liveObs struct {
	tornLogs  atomic.Int64
	tornBytes atomic.Int64
}

// Recovery describes what Open had to repair to bring the directory back to
// a consistent state. The zero value means a clean open.
type Recovery struct {
	// TornLogs is how many log files had a torn tail truncated and resealed.
	TornLogs int
	// DroppedBytes is the total torn-tail bytes discarded across all logs.
	DroppedBytes int64
}

// Recovered reports whether Open repaired anything.
func (r Recovery) Recovered() bool { return r.TornLogs > 0 }

// String renders a one-line operator-facing summary.
func (r Recovery) String() string {
	if !r.Recovered() {
		return "clean"
	}
	return fmt.Sprintf("%d torn log(s), %d bytes dropped", r.TornLogs, r.DroppedBytes)
}

// Recovery returns what Open repaired when the live graph was opened.
func (l *Live) Recovery() Recovery { return l.recovery }
