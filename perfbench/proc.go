package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// usage is the process's CPU time and peak resident memory so far.
type usage struct {
	CPU    time.Duration
	MaxRSS int64 // bytes
}

func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		CPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		MaxRSS: ru.Maxrss << 10, // Linux reports KiB
	}
}

// memCounters is the Go heap's cumulative allocation and GC count.
type memCounters struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint32 `json:"gcs"`
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{AllocBytes: ms.TotalAlloc, GCs: ms.NumGC}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{AllocBytes: m.AllocBytes - o.AllocBytes, GCs: m.GCs - o.GCs}
}

// readyReport is the part of every child's report the parent times
// set-up from.
type readyReport struct {
	ReadyUnixNS int64 `json:"ready_unix_ns"`
}

// runChild runs this binary in child mode with args, decodes the last line
// of its standard output into out, and returns the set-up time: from just
// before the process was started to the ready stamp the child reports
// when it is about to make its first timed call.
func runChild(args []string, out any) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, append([]string{"child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	var ready readyReport
	if err := json.Unmarshal(last, &ready); err != nil {
		return 0, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	if out != nil {
		if err := json.Unmarshal(last, out); err != nil {
			return 0, fmt.Errorf("child %v: bad report: %w", args, err)
		}
	}
	return time.Duration(ready.ReadyUnixNS - start), nil
}

// printReport writes a child's report as its last line of output.
func printReport(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
