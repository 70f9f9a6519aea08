package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared virtual machine the CPU's
// effective speed changes by tens of percent from one second to the
// next (another tenant on the sibling hyperthread, frequency changes),
// and for minutes at a time the hypervisor runs other guests on the
// machine's virtual CPUs (steal time), so raw timings of identical work
// differ more between runs than any change worth detecting. Every
// client therefore times a fixed CPU kernel, which shares no code with
// the program, between consecutive ops, and reads the kernel's steal
// counter just before and just after each op. An op's speed factor is
// the mean of the kernel times around it over calibRefUnit; its
// slowdown is that factor over the share of the machine's CPU time not
// stolen during the op, raised to the workload's calibExp, and its
// latency is divided by it. CPU time excludes stolen time, so CPU per
// op is divided by the speed factor alone, raised to calibExp.

// calibRefUnit is the kernel's CPU time at the reference speed: its
// typical value on the 2-CPU host the bounds were set on.
const calibRefUnit = 420 * time.Microsecond

// maxSteal caps an op's steal share: the steal counter advances in
// whole clock ticks, so one tick during a short op can read as more
// than the op's whole duration.
const maxSteal = 0.8

// speed converts the kernel times before and after an interval into how
// much slower than the reference the host ran.
func speed(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(calibRefUnit)
}

// slowdown is the factor an interval's wall time is divided by, given
// the host's speed factor and the share of CPU time stolen in it.
func slowdown(speed, steal, exp float64) float64 {
	return math.Pow(speed/(1-min(steal, maxSteal)), exp)
}

// clockTick is the unit of the counters in /proc/stat (USER_HZ, 100 on
// every Linux architecture the benchmark runs on).
const clockTick = 10 * time.Millisecond

// stealTime returns the steal time summed over the machine's CPUs so
// far: the time the hypervisor ran other work while a virtual CPU of
// the machine the benchmark runs on wanted to run. ok is false where
// the kernel does not report it; the benchmark then assumes none.
func stealTime() (d time.Duration, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, false
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * clockTick, true
}

// stealShare is the share of the machine's CPU time stolen while an
// interval of length wall ran, from stealTime readings before and after
// it.
func stealShare(before, after, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(after-before) / (float64(runtime.NumCPU()) * float64(wall))
}

// calibrator holds the kernel's buffers, so the kernel allocates
// nothing and the garbage collector stays out of its timings.
type calibrator struct {
	ints []int
	keys map[int]int
	r    *rand.Rand
	sink int // keeps the kernel's results live
}

func newCalibrator() *calibrator {
	return &calibrator{ints: make([]int, 4096), keys: make(map[int]int, 1024), r: rand.New(rand.NewSource(1))}
}

// unit runs the kernel once — sort, hash-map updates and a
// floating-point recurrence — and returns the calling thread's CPU time
// for it, which excludes any time the thread waited to run.
func (c *calibrator) unit() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	c.r.Seed(1)
	for i := range c.ints {
		c.ints[i] = c.r.Int()
	}
	sort.Ints(c.ints)
	clear(c.keys)
	for i, x := range c.ints {
		c.keys[x&1023] += i
	}
	f := 1.0
	for i := 0; i < 20000; i++ {
		f = f*1.0000001 + 1e-9
	}
	c.sink += len(c.keys) + int(f)
	return threadCPU() - t0
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
