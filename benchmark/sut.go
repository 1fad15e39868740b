package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"distqa/internal/corpus"
	"distqa/internal/gate"
	"distqa/internal/index"
	"distqa/internal/live"
	"distqa/internal/qa"
	"distqa/internal/shard"
)

// The system under test runs in its own process (the benchmark binary
// re-run with -serve), so the load generator's scheduling and allocation
// never share a runtime with it. It prints one readyMsg line, then answers
// each stdin command — mark, stats, quit — with one JSON line.

// readyMsg reports the deployment's addresses and how long set-up took.
type readyMsg struct {
	Gate  string   `json:"gate"`
	Nodes []string `json:"nodes"`
	// SetupS runs from process start until both nodes and the gateway
	// serve. It excludes ConvergeS, the wait for heartbeats to introduce
	// the peers, which the 500 ms heartbeat period quantises.
	SetupS    float64 `json:"setup_s"`
	GenerateS float64 `json:"generate_s"`
	IndexS    float64 `json:"index_s"`
	StartS    float64 `json:"start_s"`
	ConvergeS float64 `json:"converge_s"`
	IndexMB   float64 `json:"index_mb"`
}

// counters is a sample of everything the SUT counts: its own process
// resources and the counters both nodes already export.
type counters map[string]float64

// statsMsg answers "stats": counter deltas since "mark", and the live heap
// after a forced GC.
type statsMsg struct {
	Delta  counters `json:"delta"`
	HeapMB float64  `json:"heap_mb"`
}

type deployment struct {
	nodes   []*live.Node
	gateway *gate.Gateway
}

func (d *deployment) close() {
	if d.gateway != nil {
		d.gateway.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
}

// serve builds and runs the SUT for w until "quit" or the end of in.
func serve(w workload, cc corpus.Config, began time.Time, in io.Reader, out io.Writer) error {
	var ready readyMsg
	coll := corpus.Generate(cc)
	generated := time.Now()
	ready.GenerateS = generated.Sub(began).Seconds()

	// In the full-replica deployment both nodes share one engine; sharded,
	// each indexes only its own shard's sub-collections.
	var sets []*index.Set
	if w.sharded {
		for i := 0; i < clusterSize; i++ {
			sets = append(sets, index.BuildSubset(coll, shard.HoldingSubs(i, clusterSize, shardK, 1, len(coll.Subs))))
		}
	} else {
		sets = append(sets, index.BuildAll(coll))
	}
	var engines []*qa.Engine
	for _, set := range sets {
		e := qa.NewEngine(coll, set)
		// What StartNode does for an engine it builds itself.
		e.Workers = runtime.GOMAXPROCS(0)
		engines = append(engines, e)
		ready.IndexMB += float64(set.IndexBytes()) / (1 << 20)
	}
	indexed := time.Now()
	ready.IndexS = indexed.Sub(generated).Seconds()

	d := &deployment{}
	defer d.close()
	for i := 0; i < clusterSize; i++ {
		cfg := live.NodeConfig{
			Addr:   "127.0.0.1:0",
			Engine: engines[i%len(engines)],
			// TREC8Like has only 158 distinct questions; the 512/4096 defaults
			// would make every repeat a hit, which an unbounded real question
			// stream would not.
			Cache: live.CacheConfig{AnswerCapacity: 32, PRCapacity: 64},
		}
		if w.sharded {
			cfg.Shard = live.ShardConfig{K: shardK, R: 1, NodeIndex: i, ClusterSize: clusterSize}
		}
		n, err := live.StartNode(cfg)
		if err != nil {
			return fmt.Errorf("start node %d: %w", i, err)
		}
		d.nodes = append(d.nodes, n)
		ready.Nodes = append(ready.Nodes, n.Addr())
	}
	d.nodes[0].AddPeer(d.nodes[1].Addr())
	d.nodes[1].AddPeer(d.nodes[0].Addr())
	g, err := gate.New(gate.Config{Addr: "127.0.0.1:0", Nodes: ready.Nodes})
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	if err := g.Start(); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	d.gateway = g
	ready.Gate = g.URL()
	started := time.Now()
	ready.StartS = started.Sub(indexed).Seconds()
	ready.SetupS = started.Sub(began).Seconds()

	if err := d.converge(w.sharded, 30*time.Second); err != nil {
		return err
	}
	ready.ConvergeS = time.Since(started).Seconds()

	enc := json.NewEncoder(out)
	if err := enc.Encode(ready); err != nil {
		return err
	}
	var marked counters
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch cmd := sc.Text(); cmd {
		case "mark":
			c, err := d.sample()
			if err != nil {
				return err
			}
			marked = c
			if err := enc.Encode(map[string]bool{"ok": true}); err != nil {
				return err
			}
		case "stats":
			c, err := d.sample()
			if err != nil {
				return err
			}
			delta := counters{}
			for k, v := range c {
				delta[k] = v - marked[k]
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if err := enc.Encode(statsMsg{Delta: delta, HeapMB: float64(ms.HeapAlloc) / (1 << 20)}); err != nil {
				return err
			}
		case "quit":
			return enc.Encode(map[string]bool{"ok": true})
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	return sc.Err()
}

// converge waits until heartbeats have introduced the nodes to each other —
// and, sharded, until both hold a complete shard map and a summary of every
// shard — so the measured phase sees the steady topology.
func (d *deployment) converge(sharded bool, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ok := true
		for i, n := range d.nodes {
			st, err := live.QueryStatus(n.Addr(), 2*time.Second)
			if err != nil {
				return fmt.Errorf("status of node %d: %w", i, err)
			}
			ok = ok && len(st.Peers) == len(d.nodes)-1
			if sharded {
				ok = ok && st.Shard != nil && st.Shard.Complete
				for i := 0; ok && i < len(st.Shard.Shards); i++ {
					ok = st.Shard.Shards[i].SummaryVersion != 0
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not converge within %s", limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sample reads the nodes' counters, then the process's
// resource usage last, so the status calls fall outside the window.
func (d *deployment) sample() (counters, error) {
	c := counters{}
	for i, n := range d.nodes {
		st, err := live.QueryStatus(n.Addr(), 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("status of node %d: %w", i, err)
		}
		m := st.Metrics
		c["pr_subtasks"] += float64(m.PRSubtasksSent + m.ShardPRSent)
		c["ap_subtasks"] += float64(m.APSubtasksSent)
		c["forwards"] += float64(m.ForwardsOut)
		c["mux_calls"] += float64(m.MuxCalls)
		c["answer_hits"] += float64(m.AnswerCacheHits)
		c["answer_misses"] += float64(m.AnswerCacheMisses)
		c["pr_hits"] += float64(m.PRCacheHits)
		c["pr_misses"] += float64(m.PRCacheMisses)
		if st.Shard != nil {
			for _, row := range st.Shard.Shards {
				c["route_skipped"] += float64(row.RouteSkipped)
				c["route_scattered"] += float64(row.RouteScattered)
				c["route_fallbacks"] += float64(row.RouteFallbacks)
			}
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	c["cpu_s"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c["gc_cpu_s"] = gc[0].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["mallocs"] = float64(ms.Mallocs)
	c["alloc_bytes"] = float64(ms.TotalAlloc)
	c["gc_cycles"] = float64(ms.NumGC)
	return c, nil
}
