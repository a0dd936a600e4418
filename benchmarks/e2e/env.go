package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// The benchmark pins what it can of its environment and records the rest.
const (
	pinnedProcs = 2   // GOMAXPROCS; the reference box has two cores
	pinnedGOGC  = 100 // the Go default, set so that the environment cannot change it
)

// header is the environment a result was measured in.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	GOMEMLIMIT int64  `json:"gomemlimit"` // 0 when unset
}

func pinRuntime() {
	runtime.GOMAXPROCS(pinnedProcs)
	debug.SetGCPercent(pinnedGOGC)
}

func readHeader() header {
	h := header{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       pinnedGOGC,
		GOMEMLIMIT: debug.SetMemoryLimit(-1),
	}
	if h.GOMEMLIMIT == math.MaxInt64 {
		h.GOMEMLIMIT = 0
	}
	// The go tool stamps the revision when it builds inside a git work tree;
	// the driver's checkout is none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
