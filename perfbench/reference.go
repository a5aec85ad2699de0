package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Host-speed reference.
//
// Shared virtual machines change speed by 30-40% over minutes (contended
// caches and memory bandwidth), far more than a run-to-run bound can
// absorb. So the benchmark runs a fixed reference kernel, interleaved with
// the workload's ops, in a separate child process, and reports host times
// in reference-host units: time × refNominal / (median reference time of
// the same run). The kernel does what the simulator's host code does
// (an event heap, goroutine hand-offs over unbuffered channels, small
// allocations, map updates), so its speed tracks the ops' speed; in a
// separate process it cannot be slowed or sped up by the program's heap
// or goroutines. Raw times are printed beside the scaled ones.

// refNominal is the reference kernel's typical time on the 2-CPU host the
// bounds were set on. Scaled times are in that host's milliseconds.
const refNominal = 20 * time.Millisecond

// refInterval is how often the op loop samples the reference.
const refInterval = 250 * time.Millisecond

type refEvent struct {
	at, id int64
	data   []byte
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refKernel is one fixed unit of reference work.
func refKernel() int {
	ping, pong := make(chan *refEvent), make(chan *refEvent)
	done := make(chan struct{})
	go func() {
		for e := range ping {
			e.data = append(e.data, byte(e.id))
			pong <- e
		}
		close(done)
	}()
	h := &refHeap{}
	m := map[int64]*refEvent{}
	for i := int64(0); i < 20000; i++ {
		e := &refEvent{at: (i * 7919) % 1000, id: i, data: make([]byte, 0, 64)}
		heap.Push(h, e)
		m[i%512] = e
		if h.Len() > 64 {
			ping <- heap.Pop(h).(*refEvent)
			<-pong
		}
	}
	close(ping)
	<-done
	return len(m)
}

// refServe is the child process: for every byte read from stdin it runs
// the kernel once and writes the elapsed nanoseconds as a line.
func refServe(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		t0 := time.Now()
		refKernel()
		if _, err := fmt.Fprintln(out, time.Since(t0).Nanoseconds()); err != nil {
			return err
		}
	}
}

// refClient drives the reference child process.
type refClient struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
	ns  []int64 // every sample taken
}

func startRef() (*refClient, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reference")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference process: %w", err)
	}
	return &refClient{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample runs the kernel once in the child and records its time.
func (r *refClient) sample() (time.Duration, error) {
	if _, err := r.in.Write([]byte{'r'}); err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reference process: %w", err)
	}
	r.ns = append(r.ns, ns)
	return time.Duration(ns), nil
}

// scale returns refNominal over the median of the samples from index
// from on: the factor that turns this host's times into reference-host
// times.
func (r *refClient) scale(from int) float64 {
	return float64(refNominal) / float64(median(r.ns[from:]))
}

// close ends the child process and waits for it.
func (r *refClient) close() error {
	r.in.Close()
	return r.cmd.Wait()
}
