package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distqa/internal/gate"
)

// generator is the load side: one HTTP transport capped at nproc
// connections, the cycle's pre-encoded request bodies, and the oracle.
type generator struct {
	url    string
	client *http.Client
	bodies [][]byte
	expect []expectation
}

func newGenerator(gateURL string, cycle []string, expect []expectation) (*generator, error) {
	n := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConns:        n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	g := &generator{
		url:    gateURL + "/v1/ask",
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		expect: expect,
	}
	for _, q := range cycle {
		b, err := json.Marshal(gate.AskPayload{Question: q})
		if err != nil {
			return nil, err
		}
		g.bodies = append(g.bodies, b)
	}
	return g, nil
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// ask posts cycle question i and reports whether the reply was a 200
// carrying an expected answer list. buf is the caller's scratch space.
func (g *generator) ask(i int, buf *bytes.Buffer) bool {
	i %= len(g.bodies)
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(g.bodies[i]))
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && g.expect[i].acceptsBody(buf.Bytes())
}

// phase is one closed-loop phase's raw samples. A failed ask's
// latency is +Inf, so it counts as missing every latency limit.
type phase struct {
	latency []float64 // ms
	failed  int
	wall    time.Duration
}

// closedLoop runs n asks over the given number of clients, each sending its
// next ask when the previous answer is read, starting at cycle position
// first.
func (g *generator) closedLoop(first, n, clients int) phase {
	p := phase{latency: make([]float64, n)}
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				t0 := time.Now()
				ok := g.ask(first+k, &buf)
				p.latency[k] = ms(time.Since(t0))
				if !ok {
					p.latency[k] = math.Inf(1)
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.failed = int(failed.Load())
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
