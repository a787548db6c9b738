package main

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// On a virtual machine the hypervisor takes the vCPUs away from time to
// time to run other guests ("steal"). The kernel counts both sides: the
// process's own CPU time (getrusage, which leaves steal out) and each
// vCPU's steal (/proc/stat). A vCPU accrues steal while it runs guest code
// and while it waits to be woken, and on the benchmark's machine the only
// guest code is this process, so steal stretches the process's wall time.
// The benchmark scales the timings of a slice by the share of its runnable
// time the process received, proc / (proc + steal), so they read as on an
// unshared machine and do not follow the neighbours' load.
//
// In a closed-loop slice the process keeps a vCPU busy, and the slice's
// share is what each operation received. In a shared slice the vCPUs sit
// idle between the browser's 50 wake-ups a second, and most of the slice's
// steal is the delay of those wake-ups, which the browse latencies pay;
// the slice's own share scales them. An upload keeps a vCPU busy like a
// closed-loop operation and takes the share of the latest closed-loop
// slice instead; the shared slice's share would also take out the wake-up
// steal, which an upload does not pay.
//
// Without /proc/stat (not Linux) the share is 1 and timings are raw wall
// time.

// cpuClocks is one reading of the two clocks.
type cpuClocks struct {
	proc  time.Duration // CPU time this process has received
	steal time.Duration // time stolen from the machine's vCPUs since boot
}

// userHZ is the unit of the /proc/stat counters, fixed at 100 by the
// kernel's ABI.
const userHZ = 100

func readCPUClocks() cpuClocks {
	var c cpuClocks
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.steal = readSteal()
	return c
}

// readSteal returns the steal column of the aggregate cpu line of
// /proc/stat, or 0 when it cannot be read.
func readSteal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// receivedShare is the share of its runnable CPU time the process received
// between two readings: proc / (proc + steal), 1 when nothing was stolen.
func receivedShare(a, b cpuClocks) float64 {
	proc, steal := b.proc-a.proc, b.steal-a.steal
	if steal <= 0 || proc <= 0 {
		return 1
	}
	return float64(proc) / float64(proc+steal)
}

// busySeries reports whether a shared-slice series times operations that
// keep a vCPU busy (the uploads) rather than wake-ups (the browser).
func busySeries(name string) bool { return strings.Contains(name, "shared_upload") }

// unstolen scales a sample taken while the process received the given
// share of its runnable time: a duration shrinks by the share, a rate
// grows by it, and a sample that is not a timing stays as it is.
func unstolen(name string, v, share float64) float64 {
	switch {
	case math.IsInf(v, 0):
		return v
	case strings.HasSuffix(name, "_per_s"):
		return v / share
	case name == "disk_bytes_per_point":
		return v
	}
	return v * share
}
