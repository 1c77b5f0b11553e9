package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"
)

// speedRef measures how fast the host runs while a run measures. The host
// is shared, and its speed drifts by up to 1.9x over minutes, far more
// than any bound a regression check could use. A run therefore interleaves
// fixed reference kernels with its workload, outside the measured
// windows. They call none of the program's code, so no change to the
// program can move them:
//
//   - cpu: one goroutine of arithmetic and sorting over 96 KiB;
//   - net: a net/http echo server on a loopback listener, driven like the
//     served fleet by two goroutines over at most two connections.
//
// A kernel's slowdown is its median chunk time in this run over its
// median on the recording host, and the run's speed factor is the
// geometric mean of its kernels' slowdowns. The serving workloads use net
// alone; the simulations use both, since neither alone tracked both sims
// (see README.md, Host). End-to-end timings are reported divided by the
// factor and rates multiplied by it, so they read in the recording host's
// units; the raw values are printed beside them.
type speedRef struct {
	kernels []*refKernel
	close   func()
	last    int64
	err     error
}

type refKernel struct {
	name string
	// nominal is the kernel's median ns per chunk on the recording host.
	nominal float64
	chunk   func() (int64, error)
	samples []int64
}

// Median ns per chunk of each kernel on the recording host.
const (
	cpuRefNominal = 1.4e6
	netRefNominal = 3.2e6
)

const (
	// refEvery is the least time between two reference bursts, and
	// refBurst the chunks of each kernel in a burst. A burst takes at most
	// about 23 ms, so a run spends at most about 12% of its time on them.
	refEvery = int64(200 * time.Millisecond)
	refBurst = 5
)

// newSpeedRef starts the net kernel, and the cpu kernel before it when
// withCPU is set. Call close when the run ends.
func newSpeedRef(withCPU bool) (*speedRef, error) {
	nk, closeNet, err := newNetKernel()
	if err != nil {
		return nil, fmt.Errorf("net reference: %w", err)
	}
	s := &speedRef{close: closeNet}
	if withCPU {
		s.kernels = append(s.kernels, newCPUKernel())
	}
	s.kernels = append(s.kernels, nk)
	return s, nil
}

// sample runs a burst of every kernel if refEvery has passed since the
// last one. A failed chunk is kept as the reference's error.
func (s *speedRef) sample() {
	if s.err != nil || (s.last != 0 && clock()-s.last < refEvery) {
		return
	}
	for i := 0; i < refBurst; i++ {
		for _, k := range s.kernels {
			d, err := k.chunk()
			if err != nil {
				s.err = fmt.Errorf("%s reference: %w", k.name, err)
				return
			}
			k.samples = append(k.samples, d)
		}
	}
	s.last = clock()
}

// factor is how many times slower than the recording host this run's
// host was.
func (s *speedRef) factor() float64 {
	logSum := 0.0
	for _, k := range s.kernels {
		logSum += math.Log(median(k.samples) / k.nominal)
	}
	return math.Exp(logSum / float64(len(s.kernels)))
}

// normalize reports the end-to-end timings of r at the recording host's
// speed and keeps the raw values as informational lines.
func (s *speedRef) normalize(r *result) {
	if s.err != nil {
		r.fail("%v", s.err)
		return
	}
	f := s.factor()
	for _, m := range endToEnd {
		v, ok := r.values[m.Name]
		if !ok {
			continue
		}
		switch m.Unit {
		case "s", "ms", "us":
			r.values[m.Name] = v / f
		case "1/s":
			r.values[m.Name] = v * f
		default:
			continue
		}
		r.addExtra(m.Name+".raw", v, m.Unit, 0)
	}
	for _, k := range s.kernels {
		r.addExtra("ref."+k.name+".us_p50", median(k.samples)/1e3, "us", len(k.samples))
	}
	r.addExtra("ref.speed_factor", f, "ratio", 0)
}

// refSink keeps the CPU kernel's result live, so the compiler cannot drop
// its work.
var refSink float64

// newCPUKernel scans 128 queries against 4096 points and sorts the 4096
// distances of the last one.
func newCPUKernel() *refKernel {
	const n = 4096
	xs, ys := make([]float64, n), make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / (1 << 53)
	}
	for i := range xs {
		xs[i], ys[i] = next()*1000, next()*1000
	}
	keys := make([]float64, n)
	return &refKernel{
		name:    "cpu",
		nominal: cpuRefNominal,
		chunk: func() (int64, error) {
			t0 := clock()
			acc := 0.0
			for q := 0; q < 128; q++ {
				qx, qy := xs[q*97%n], ys[q*193%n]
				best := math.Inf(1)
				for i := range xs {
					dx, dy := xs[i]-qx, ys[i]-qy
					d := math.Sqrt(dx*dx + dy*dy)
					keys[i] = d
					if d > 0 && d < best {
						best = d
					}
				}
				acc += best
			}
			slices.Sort(keys)
			refSink += acc + keys[n/2]
			return clock() - t0, nil
		},
	}
}

// newNetKernel serves an echo handler on a loopback listener. A chunk is
// 60 round trips on each of two goroutines, each a 256-byte POST answered
// with 2 KiB. The returned func stops the server and waits for it.
func newNetKernel() (*refKernel, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	reply := bytes.Repeat([]byte("r"), 2048)
	srv := &http.Server{
		ReadHeaderTimeout: 5 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if _, err := io.Copy(io.Discard, r.Body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(reply) // a failed write shows as a client error
		}),
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}
	cl := &http.Client{Timeout: 10 * time.Second, Transport: tr}
	url := "http://" + ln.Addr().String() + "/echo"
	body := bytes.Repeat([]byte("q"), 256)
	post := func() error {
		resp, err := cl.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || n != int64(len(reply)) {
			return fmt.Errorf("echo: status %d, %d bytes", resp.StatusCode, n)
		}
		return nil
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a timeout leaves connections to Close below
		_ = srv.Close()
		<-served
		tr.CloseIdleConnections()
	}
	k := &refKernel{
		name:    "net",
		nominal: netRefNominal,
		chunk: func() (int64, error) {
			var wg sync.WaitGroup
			var errs [2]error
			t0 := clock()
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 60 && errs[g] == nil; i++ {
						errs[g] = post()
					}
				}(g)
			}
			wg.Wait()
			return clock() - t0, errors.Join(errs[:]...)
		},
	}
	return k, stop, nil
}
