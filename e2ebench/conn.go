package main

import (
	"bytes"
	"net"
	"runtime"
	"syscall"
	"time"
)

// meterConn is the client's end of the connection with a clock on it: it
// stamps the start of each request write and the arrival of the first
// response byte, counts the response bytes, and — for traced ops — keeps
// a copy of them. client.Client drives it from one goroutine.
type meterConn struct {
	net.Conn
	awaiting   bool // a request was written and no response byte has arrived
	writeStart time.Time
	firstByte  time.Duration // request write → first response byte, last request
	readBytes  int64
	capture    *bytes.Buffer // non-nil while a traced op wants the raw response
}

func (c *meterConn) Write(p []byte) (int, error) {
	if !c.awaiting {
		c.awaiting = true
		c.writeStart = time.Now()
	}
	return c.Conn.Write(p)
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if c.awaiting {
			c.awaiting = false
			c.firstByte = time.Since(c.writeStart)
		}
		c.readBytes += int64(n)
		if c.capture != nil {
			c.capture.Write(p[:n])
		}
	}
	return n, err
}

// meter accounts what the process spent between start and stop: user+system
// CPU time (all threads: server, client and GC), returned per interval, and
// heap allocations, accumulated. Kernel samples and result checking happen
// while it is stopped, so they stay out of the per-op costs.
type meter struct {
	allocs, bytes uint64

	cpu0   time.Duration
	stats0 runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) start() {
	// ReadMemStats flushes the per-P allocation caches, so the counts are
	// exact and repeat from run to run.
	runtime.ReadMemStats(&m.stats0)
	m.cpu0 = cpuTime()
}

// stop returns the CPU time since start.
func (m *meter) stop() time.Duration {
	cpu := cpuTime() - m.cpu0
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	m.allocs += s.Mallocs - m.stats0.Mallocs
	m.bytes += s.TotalAlloc - m.stats0.TotalAlloc
	return cpu
}
