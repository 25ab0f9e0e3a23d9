package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// Shared hosts drift: on the 2-CPU VM the bounds were calibrated on, speed
// moved by up to a third over minutes while nothing in the process changed
// (and no steal time showed in the guest). The end-to-end times are
// therefore reported at a reference host speed: each run times a fixed
// reference computation between its measuring segments and scales its raw
// times by refNominal over the run's median reference time. The reference
// depends on nothing in the repository, so a change to the program moves the
// scaled times exactly as it moves the raw ones; host.ref_ms in the traced
// run shows the raw speed.

// refNominal is the reference time on a quiet host of the kind the bounds
// were calibrated on; scaled times read as raw times on that host.
const refNominal = 12 * time.Millisecond

const (
	refNodes     = 256     // Floyd–Warshall size: a 512 KiB distance matrix
	refRingSlots = 1 << 20 // pointer-chase ring: 4 MiB
	refSteps     = 1 << 17 // pointer-chase steps per sample
	// refBytes is the reference computation's memory, all of it resident
	// for the whole run.
	refBytes = 8*refNodes*refNodes + 4*refRingSlots
)

// refWork is the reference computation: Floyd–Warshall over a fixed
// 256-node graph (dense float arithmetic over a cache-sized matrix, like the
// control plane's routing) and a pointer chase around a 4 MiB ring (memory
// latency, like the engine's scattered node state).
//
// Its memory is mapped outside the Go heap, so it changes neither the
// garbage collector's pacing of the workload nor its heap.
type refWork struct {
	mem  []byte
	dist []float64
	ring []uint32
	sink float64
}

func newRefWork() (*refWork, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference computation's memory: %w", err)
	}
	r := &refWork{
		mem:  mem,
		dist: unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), refNodes*refNodes),
		ring: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[8*refNodes*refNodes])), refRingSlots),
	}
	// Sattolo's shuffle of the identity is a single cycle through every
	// slot; a fixed xorshift stream makes it the same cycle on every run.
	for i := range r.ring {
		r.ring[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(r.ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		r.ring[i], r.ring[j] = r.ring[j], r.ring[i]
	}
	r.floyd() // touch every page, so all of refBytes is resident from here on
	return r, nil
}

func (r *refWork) close() { syscall.Munmap(r.mem) }

// sample times one reference computation: the geometric mean of its two
// parts, so that neither dominates.
func (r *refWork) sample() time.Duration {
	start := time.Now()
	r.floyd()
	fw := time.Since(start)
	start = time.Now()
	r.chase()
	ch := time.Since(start)
	return time.Duration(math.Sqrt(float64(fw) * float64(ch)))
}

func (r *refWork) floyd() {
	const n = refNodes
	d := r.dist
	for i := 0; i < n; i++ {
		row := d[i*n : (i+1)*n]
		for j := range row {
			row[j] = math.Inf(1)
		}
		row[i] = 0
		row[(i+1)%n] = float64(1 + i%7)
		row[(i*31+7)%n] = float64(2 + i%5)
	}
	for k := 0; k < n; k++ {
		dk := d[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i*n : (i+1)*n]
			for j, x := range dk {
				if s := dik + x; s < di[j] {
					di[j] = s
				}
			}
		}
	}
	r.sink += d[n-1]
}

func (r *refWork) chase() {
	p := uint32(0)
	for i := 0; i < refSteps; i++ {
		p = r.ring[p]
	}
	r.sink += float64(p)
}
