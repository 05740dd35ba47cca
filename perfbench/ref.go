package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is the benchmark's yardstick for host speed.
// The host is a small share of a busy machine: from one run to the
// next the same work can take twice as long, in wall time and, less
// so, in CPU time. The gated time metrics are therefore ratios: the
// time of a workload operation over the time of this fixed kernel run
// right next to it, so a slower host slows both and the ratio stays.
// The kernel is a branchy register interpreter with no memory traffic
// beyond the stack; of the kernels tried (random memory walks,
// map-building allocation, this one) it tracked the workloads' own
// slowdowns most closely. Its code is part of the metric's definition:
// changing it changes every *_norm figure.

// refSteps fixes the kernel's work: about 7 ms on a 2-vCPU Xeon VM.
const refSteps = 1_500_000

var refSink uint64

// refKernel runs the reference kernel once.
//
//go:noinline
func refKernel() {
	prog := [...]uint8{0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 4, 2, 2, 1, 3}
	var r [4]uint64
	r[0] = 1
	for i := 0; i < refSteps; i++ {
		switch prog[i&15] {
		case 0:
			r[i&3] += r[(i+1)&3] + 7
		case 1:
			if r[0]&1 == 0 {
				r[1] ^= r[2] >> 3
			} else {
				r[2] += r[3] << 1
			}
		case 2:
			r[3] = r[3]*6364136223846793005 + 1442695040888963407
		case 3:
			if r[3] > r[1] {
				r[0]--
			}
		default:
			r[i&3] ^= uint64(i)
		}
	}
	refSink += r[0] + r[1] + r[2] + r[3]
}

// refSample is one run of the reference kernel: its wall time and the
// CPU time of the thread that ran it.
type refSample struct {
	wall, cpu time.Duration
}

// measureRef runs the reference kernel once on a locked thread.
func measureRef() refSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPU(), time.Now()
	refKernel()
	return refSample{wall: time.Since(t0), cpu: threadCPU() - c0}
}

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime is the CPU time, user and system, of the whole process. With
// paravirtual steal accounting the guest kernel leaves out the time
// the host ran something else on the VM's CPUs.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time, user and system, of the calling thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// cpuClock reads a CPU-time clock to the nanosecond; getrusage would
// round to scheduler ticks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
