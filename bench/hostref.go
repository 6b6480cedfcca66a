package main

import (
	"fmt"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// refNominalUs is what one unit of the reference work takes on the
	// 2-core reference host in a calm minute. Times are reported multiplied
	// by refNominalUs over the run's own median unit time, and rates divided
	// by it: as they would have read on that host in that minute.
	refNominalUs = 100.0
	// refEvery is how often the load generator runs one unit between two
	// DMLs: about 1 % of the connection's time, a thousand samples a run.
	refEvery = 10 * time.Millisecond
)

// hostRef measures how fast the host is while a workload runs. The shared
// reference host's speed moves by a third over minutes (a bare integer loop
// barely sees it, ordinary code does: presumably other guests on sibling
// hyperthreads and in the shared cache), which is more than the bound any
// metric here is held to. So connection 0's generator interleaves a fixed
// unit of ordinary work with its DMLs, and the run's end-to-end times and
// rates are scaled by the median time that unit took: what moves the host
// moves both, what a commit does to the system moves only one. The unit
// uses nothing of this repository and allocates nothing, so that the
// system's own garbage does not tax it: it formats, parses, hashes and
// sorts numbers, and sends them to itself in datagrams through the loopback
// stack, so part of it runs in the kernel, like the workloads. What else was
// tried as a reference, and how far each followed the host, is in README.md.
type hostRef struct {
	fd   int // a UDP socket connected to itself, blocking, outside the netpoller
	seed uint64
	nums []int
	seen map[uint64]int
	buf  []byte
	sink int
	last time.Time
	us   []float64
}

func newHostRef() (*hostRef, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return nil, fmt.Errorf("host reference: socket: %w", err)
	}
	h := &hostRef{fd: fd, seed: 88172645463325252, nums: make([]int, 0, 64),
		seen: make(map[uint64]int, 4096), buf: make([]byte, 0, 1024)}
	addr := &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}
	// A datagram the stack dropped must cost one late sample, not the run.
	err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &syscall.Timeval{Usec: 100_000})
	if err == nil {
		err = syscall.Bind(fd, addr)
	}
	if err == nil {
		var self syscall.Sockaddr
		if self, err = syscall.Getsockname(fd); err == nil {
			err = syscall.Connect(fd, self)
		}
	}
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("host reference: loopback socket: %w", err)
	}
	return h, nil
}

func (h *hostRef) close() { syscall.Close(h.fd) }

// tick runs one unit if refEvery has passed since the last one.
func (h *hostRef) tick() {
	if now := time.Now(); now.Sub(h.last) >= refEvery {
		h.unit()
		h.last = time.Now()
		h.us = append(h.us, float64(h.last.Sub(now).Nanoseconds())/1e3)
	}
}

func (h *hostRef) unit() {
	x := h.seed
	for round := 0; round < 4; round++ {
		h.nums, h.buf = h.nums[:0], h.buf[:0]
		for i := 0; i < 64; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			h.buf = strconv.AppendUint(h.buf, x%1000000, 10)
			h.buf = append(h.buf, ' ')
			h.seen[x%4096] += i
		}
		// The datagram goes down and up the loopback stack before Write
		// returns, so the read finds it there.
		if _, err := syscall.Write(h.fd, h.buf); err == nil {
			if n, err := syscall.Read(h.fd, h.buf[:cap(h.buf)]); err == nil {
				h.buf = h.buf[:n]
			}
		}
		v := 0
		for _, c := range h.buf {
			if c != ' ' {
				v = v*10 + int(c-'0')
				continue
			}
			h.nums = append(h.nums, v+h.seen[uint64(v)%4096])
			v = 0
		}
		sort.Ints(h.nums)
		h.sink += h.nums[len(h.nums)/2]
	}
	h.seed = x
}

func (h *hostRef) p50() float64 { return p50(append([]float64(nil), h.us...)) }

// factor is what the run's times are multiplied by, and its rates divided.
func (h *hostRef) factor() float64 { return refNominalUs / h.p50() }
