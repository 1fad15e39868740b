package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"distqa/internal/corpus"
	"distqa/internal/fault"
	"distqa/internal/index"
	"distqa/internal/nlp"
	"distqa/internal/obs"
	"distqa/internal/qa"
	"distqa/internal/qcache"
	"distqa/internal/shard"
	"distqa/internal/wire"
)

// NodeConfig configures one live node.
type NodeConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Peers are the other nodes' addresses. Peers may also be learned from
	// incoming heartbeats (dynamic pool join, Section 3.1 of the paper).
	Peers []string
	// Corpus is the shared collection configuration; every node generates
	// an identical replica from it.
	Corpus corpus.Config
	// Engine optionally supplies a pre-built engine sharing a collection
	// replica across nodes in the same process (tests, demos). When set,
	// Corpus is ignored.
	Engine *qa.Engine
	// MaxConcurrent is the admission limit (default 4, the paper's
	// full-load threshold).
	MaxConcurrent int
	// HeartbeatEvery is the load-broadcast period (default 500 ms).
	HeartbeatEvery time.Duration
	// RequestTimeout bounds each remote call (default 30 s).
	RequestTimeout time.Duration
	// Detector tunes the heartbeat failure detector (missed-beat thresholds
	// for alive -> suspect -> dead). Zero value selects defaults.
	Detector DetectorConfig
	// Breaker tunes the per-peer circuit breaker layered over the
	// connection pool. Zero value selects defaults.
	Breaker BreakerConfig
	// Retry is the jittered-exponential-backoff retry policy with the
	// per-question deadline budget. Zero value selects defaults.
	Retry RetryPolicy
	// Seed seeds the node's retry-jitter RNG (0 = time-based). Chaos runs
	// set it for reproducibility.
	Seed int64
	// Fault optionally injects faults into every outbound call (package
	// fault): drop, delay, duplicate or sever per peer/op. nil = no faults.
	Fault *fault.Injector
	// Mux tunes the multiplexed binary-codec transport (PR-4). The zero
	// value enables it with defaults; Mux.Disabled pins outbound calls to
	// the gob pool (benchmark comparisons).
	Mux MuxConfig
	// Cache tunes the question/PR result caches (PR-4). The zero value
	// enables both with defaults; Cache.Disabled turns caching off (chaos
	// runs, cold-path benchmarks).
	Cache CacheConfig
	// Shard configures collection sharding (PR-5): K shards, R replicas,
	// chained-declustering placement by NodeIndex/ClusterSize. The zero
	// value keeps the node on a full collection replica.
	Shard ShardConfig
	// SLOObjectives overrides the rolling-window latency/error objectives
	// the node evaluates (PR-6). nil selects obs.DefaultObjectives.
	SLOObjectives []obs.Objective
	// FlightCap bounds the slow-question flight recorder (records retained,
	// keep-the-worst). 0 selects obs.DefaultFlightCap; negative disables.
	FlightCap int
}

// Node is a running live Q/A node.
type Node struct {
	cfg      NodeConfig
	engine   *qa.Engine
	listener net.Listener
	addr     string // listener address, formatted once
	started  time.Time

	// Observability: per-node metrics registry, cached metric handles, the
	// span recorder (stamped with this node's address), the SLO engine and
	// the slow-question flight recorder (PR-6).
	obs    *obs.Registry
	nm     *nodeMetrics
	spans  *obs.Recorder
	slo    *obs.SLOEngine
	flight *obs.FlightRecorder

	// Cached Go runtime sample: runtime.ReadMemStats stops the world and the
	// GC-pause quantile sorts the pause ring, so status replies and scrapes
	// share one sample per second instead of paying that per request (the
	// rpc benchmarks drive QueryStatus in a tight loop).
	rtMu        sync.Mutex
	rtSample    obs.RuntimeStats
	rtSampledAt time.Time

	// pool holds persistent gob connections to peers — the negotiated
	// fallback under mux, and the transport for legacy peers.
	pool *Pool
	// mux is the primary outbound transport: one multiplexed binary-codec
	// connection per peer; heartbeats, forwards and PR/AP sub-task traffic
	// all ride it (degrading to pool, then one-shot, as layers close).
	mux *MuxTransport

	// Question/PR caches (internal/qcache) with singleflight coalescing of
	// identical in-flight questions; see ask.go.
	answerCache *qcache.Cache
	prCache     *qcache.Cache
	askFlight   *qcache.Group

	// Fault tolerance: the heartbeat failure detector (alive/suspect/dead
	// gating of dispatch candidates), per-peer circuit breakers over the
	// pool, and the retry machinery with its seeded jitter RNG.
	detector    *detector
	breakers    *breakerSet
	retry       *retrier
	retryPolicy RetryPolicy

	// Sharding state (PR-5). shardTracker == nil means the node serves a
	// full collection replica (every pre-sharding behaviour intact).
	// holdings/holdSubs are immutable after StartNode and safe to share.
	shardK       int
	shardR       int
	holdings     []int // shard ids this node's index covers
	holdSubs     []int // sub-collections this node's index covers
	shardTracker *shard.Tracker

	// Selective-routing state (PR-7). All nil/empty when routing is off.
	// localSums/localSumVers are immutable after StartNode and safe to share;
	// sumStore holds gossiped summaries of shards other nodes hold.
	localSums    map[int]*shard.Summary
	localSumVers []int64 // parallel to holdings, for the heartbeat payload
	sumStore     *summaryStore
	routeStats   []routeStats // per-shard skip/scatter/fallback counters

	mu         sync.Mutex
	peers      map[string]LoadReport
	knownPeers map[string]bool
	questions  int
	queued     int
	apTasks    int

	// connMu guards the set of accepted keep-alive connections so Close can
	// unblock handler goroutines parked in a decode.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	admit     chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// StartNode builds the collection replica (unless an engine is supplied),
// starts listening and begins heartbeating.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	engine := cfg.Engine
	var (
		shardK, shardR     int
		holdings, holdSubs []int
		tracker            *shard.Tracker
	)
	if engine == nil {
		coll := corpus.Generate(cfg.Corpus)
		if cfg.Shard.enabled() {
			// Text replicated, index sharded: the full collection text is
			// regenerated everywhere (AP and paragraph-reference resolution
			// need it), but the index — the memory-dominant structure — is
			// built only for the sub-collections chained declustering places
			// on this node.
			k, r, err := shard.Normalize(cfg.Shard.K, maxInt(cfg.Shard.R, 1), cfg.Shard.ClusterSize, len(coll.Subs))
			if err != nil {
				return nil, fmt.Errorf("live: shard config: %w", err)
			}
			if cfg.Shard.NodeIndex < 0 || cfg.Shard.NodeIndex >= cfg.Shard.ClusterSize {
				return nil, fmt.Errorf("live: shard config: node index %d outside cluster of %d", cfg.Shard.NodeIndex, cfg.Shard.ClusterSize)
			}
			shardK, shardR = k, r
			holdings = shard.Holdings(cfg.Shard.NodeIndex, cfg.Shard.ClusterSize, k, r)
			holdSubs = shard.HoldingSubs(cfg.Shard.NodeIndex, cfg.Shard.ClusterSize, k, r, len(coll.Subs))
			engine = qa.NewEngine(coll, index.BuildSubset(coll, holdSubs))
			tracker = shard.NewTracker(k)
		} else {
			engine = qa.NewEngine(coll, index.BuildAll(coll))
		}
		// A live node owns its replica and serves real traffic: exploit the
		// host's cores for PR/PS fan-out (byte-identical results either way).
		engine.Workers = runtime.GOMAXPROCS(0)
	} else if cfg.Shard.enabled() {
		// Supplied engine (tests, demos sharing one collection in-process):
		// derive this node's holdings from the engine's shard-scoped index.
		k, r, err := shard.Normalize(cfg.Shard.K, maxInt(cfg.Shard.R, 1), maxInt(cfg.Shard.ClusterSize, 1), len(engine.Coll.Subs))
		if err != nil {
			return nil, fmt.Errorf("live: shard config: %w", err)
		}
		shardK, shardR = k, r
		seen := make(map[int]bool, k)
		for _, sub := range engine.Set.Globals() {
			s := shard.OfSub(sub, k)
			if !seen[s] {
				seen[s] = true
				holdings = append(holdings, s)
			}
		}
		sort.Ints(holdings)
		holdSubs = engine.Set.Globals()
		tracker = shard.NewTracker(k)
	}
	var (
		localSums    map[int]*shard.Summary
		localSumVers []int64
		sumStore     *summaryStore
		rstats       []routeStats
	)
	if tracker != nil && !cfg.Shard.Routing.Disabled {
		// Selective routing (PR-7): summarise each held shard once — the index
		// is immutable, so the summaries (and their content-checksum versions,
		// gossiped on every heartbeat) never change for the node's lifetime.
		localSums = make(map[int]*shard.Summary, len(holdings))
		localSumVers = make([]int64, len(holdings))
		opts := cfg.Shard.Routing.summaryOptions()
		for i, s := range holdings {
			sum, err := shard.BuildSummary(engine.Set, s, shard.SubsOf(s, shardK, len(engine.Coll.Subs)), opts)
			if err != nil {
				return nil, fmt.Errorf("live: summarise shard %d: %w", s, err)
			}
			localSums[s] = &sum
			localSumVers[i] = sum.Version
		}
		sumStore = newSummaryStore()
		rstats = newRouteStats(shardK)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", cfg.Addr, err)
	}
	reg := obs.NewRegistry()
	flightCap := cfg.FlightCap
	if flightCap == 0 {
		flightCap = obs.DefaultFlightCap
	}
	var flight *obs.FlightRecorder
	if flightCap > 0 {
		flight = obs.NewFlightRecorder(flightCap)
	}
	n := &Node{
		cfg:      cfg,
		engine:   engine,
		listener: ln,
		addr:     ln.Addr().String(),
		started:  time.Now(),
		obs:      reg,
		nm:       newNodeMetrics(reg),
		spans:    obs.NewRecorder(ln.Addr().String(), 0),
		slo:      obs.NewSLOEngine(obs.SLOConfig{Objectives: cfg.SLOObjectives}),
		flight:   flight,
		pool: NewPool(PoolConfig{
			Registry: reg,
			Self:     ln.Addr().String(),
			// The injector also lives here (not only on the mux transport)
			// so direct Pool users keep fault semantics; no call is decided
			// twice because the mux fallback uses the injector-free p.call.
			Injector: cfg.Fault,
		}),
		detector:     newDetector(cfg.Detector, cfg.HeartbeatEvery),
		breakers:     newBreakerSet(cfg.Breaker),
		retry:        newRetrier(cfg.Seed),
		retryPolicy:  cfg.Retry.withDefaults(cfg.RequestTimeout),
		shardK:       shardK,
		shardR:       shardR,
		holdings:     holdings,
		holdSubs:     holdSubs,
		shardTracker: tracker,
		localSums:    localSums,
		localSumVers: localSumVers,
		sumStore:     sumStore,
		routeStats:   rstats,
		peers:        make(map[string]LoadReport),
		knownPeers:   make(map[string]bool),
		conns:        make(map[net.Conn]struct{}),
		admit:        make(chan struct{}, cfg.MaxConcurrent),
		done:         make(chan struct{}),
	}
	muxCfg := cfg.Mux
	muxCfg.Registry = reg
	muxCfg.Self = ln.Addr().String()
	muxCfg.Injector = cfg.Fault
	n.mux = NewMuxTransport(muxCfg, n.pool)
	if !cfg.Cache.Disabled {
		cc := cfg.Cache.withDefaults()
		n.answerCache = qcache.New(cc.AnswerCapacity, cc.AnswerTTL)
		n.prCache = qcache.New(cc.PRCapacity, cc.PRTTL)
		n.askFlight = qcache.NewGroup()
	}
	n.breakers.onTrip = func(string) { n.nm.breakerTrips.Inc() }
	// Every stage span completed on this node (local stages and remote
	// sub-tasks alike) feeds the per-stage latency histograms.
	n.spans.OnEnd = n.nm.observeSpan
	for _, a := range cfg.Peers {
		n.knownPeers[a] = true
	}
	n.wg.Add(2)
	go n.serve()
	go n.heartbeatLoop()
	return n, nil
}

// Addr returns the node's bound address.
func (n *Node) Addr() string { return n.addr }

// Close stops the node. It is idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.listener.Close()
		n.mux.Close()
		n.pool.Close()
		// Force-close accepted keep-alive connections so handler goroutines
		// parked in a decode unblock instead of waiting out the idle timeout.
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connMu.Unlock()
		n.wg.Wait()
	})
}

// Pool returns the node's peer connection pool (tests, benchmarks).
func (n *Node) Pool() *Pool { return n.pool }

// Mux returns the node's multiplexed peer transport (tests, benchmarks).
func (n *Node) Mux() *MuxTransport { return n.mux }

// serve accepts connections until closed.
func (n *Node) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
				continue
			}
		}
		n.connMu.Lock()
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				n.connMu.Lock()
				delete(n.conns, conn)
				n.connMu.Unlock()
			}()
			n.handle(conn)
		}()
	}
}

// heartbeatLoop periodically reports load to every known peer.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
		}
		report := n.loadReport()
		for _, addr := range n.peerAddrs() {
			addr := addr
			go func() {
				n.nm.hbSent.Inc()
				// Single attempt per beat (the next beat is the retry), but
				// breaker-gated: an open breaker makes beats to a dead peer
				// free, and its half-open probe is how connectivity recovery
				// is discovered.
				deadline := time.Now().Add(2 * n.cfg.HeartbeatEvery)
				if _, err := n.callPeer(addr, &Request{Kind: kindHeartbeat, Load: report}, deadline, 1); err != nil {
					n.nm.failHB.Inc()
				}
			}()
		}
		n.pool.EvictIdle()
	}
}

// AddPeer registers another node's address (peers are also learned
// automatically from incoming heartbeats).
func (n *Node) AddPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.knownPeers[addr] = true
}

// peerAddrs merges configured and learned peers.
func (n *Node) peerAddrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	set := make(map[string]bool)
	for a := range n.knownPeers {
		set[a] = true
	}
	for a := range n.peers {
		set[a] = true
	}
	delete(set, n.Addr())
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (n *Node) loadReport() LoadReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return LoadReport{
		Addr:      n.Addr(),
		Questions: n.questions,
		Queued:    n.queued,
		APTasks:   n.apTasks,
		// The shard claim rides every heartbeat (the load-monitor channel is
		// the shard map's transport). holdings is immutable, safe to share —
		// as is the summary-version vector (PR-7), which is how summaries
		// gossip incrementally: versions every beat, bodies only on pull.
		Shards:  n.holdings,
		SumVers: n.localSumVers,
		Sent:    time.Now(),
	}
}

// freshPeers returns peer reports younger than three heartbeats (the
// paper's stale-node eviction) — the operator-facing peer table.
func (n *Node) freshPeers() []LoadReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.peers) == 0 {
		return nil
	}
	cutoff := time.Now().Add(-3 * n.cfg.HeartbeatEvery)
	out := make([]LoadReport, 0, len(n.peers))
	for _, r := range n.peers {
		if r.Sent.After(cutoff) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b LoadReport) int { return strings.Compare(a.Addr, b.Addr) })
	return out
}

// candidatePeers is the dispatch-candidate set: peers the failure detector
// considers alive AND whose circuit breaker is not open. Forwarding and
// PR/AP partitioning draw exclusively from this set, so a peer that stops
// heartbeating (or keeps failing calls) receives no new work until it is
// re-admitted by a fresh heartbeat (and its breaker's half-open probe
// succeeds).
func (n *Node) candidatePeers() []LoadReport {
	now := time.Now()
	fresh := n.freshPeers()
	out := fresh[:0] // filter in place: the fresh slice is ours alone
	for _, r := range fresh {
		if n.detector.stateOf(r.Addr, now) != PeerAlive {
			continue
		}
		if n.breakers.stateOf(r.Addr) == BreakerOpen {
			continue
		}
		out = append(out, r)
	}
	return out
}

// PeerState returns this node's failure-detector verdict on addr (tests,
// chaos harness).
func (n *Node) PeerState(addr string) PeerState {
	return n.detector.stateOf(addr, time.Now())
}

// BreakerStateOf returns this node's circuit-breaker state for addr.
func (n *Node) BreakerStateOf(addr string) BreakerState {
	return n.breakers.stateOf(addr)
}

// handle serves one accepted connection. The first bytes classify the codec:
// the binary hello magic selects the multiplexed frame loop (handleMux);
// anything else is a legacy gob peer — the peeked bytes are replayed into a
// gob decoder and the connection is served by the keep-alive gob loop
// (handleGob). Both styles share the port and the dispatch table, so old gob
// peers (and one-shot clients like qactl) interop with binary-codec nodes.
func (n *Node) handle(conn net.Conn) {
	defer conn.Close()
	peek := make([]byte, wire.MagicLen)
	conn.SetReadDeadline(time.Now().Add(serverIdleTimeout)) //nolint:errcheck
	nr, err := io.ReadFull(conn, peek)
	if err != nil && nr == 0 {
		return
	}
	if err == nil && wire.IsMagic(peek) {
		version, err := wire.ReadHelloVersion(conn)
		if err != nil {
			return
		}
		agreed := wire.Negotiate(wire.VersionBin, version)
		if err := wire.WriteAck(conn, agreed); err != nil {
			return
		}
		if agreed == wire.VersionBin {
			n.handleMux(conn)
			return
		}
		// Negotiated down to gob: the client switches to fresh gob streams
		// after the ack.
		n.handleGob(conn, conn)
		return
	}
	n.handleGob(io.MultiReader(bytes.NewReader(peek[:nr]), conn), conn)
}

// handleMux serves one negotiated binary-codec connection: a demux loop
// reading request frames (uvarint request ID + codec payload) and answering
// each out of order as its handler finishes. Heartbeats are dispatched
// inline — they are cheap and keeping them on the read-loop stack is what
// makes the hot decode path allocation-free; everything else runs in its own
// goroutine behind a per-connection concurrency limit, so one slow ask never
// blocks heartbeat processing on the same socket.
//
// Deadline hygiene matches pool.go: the read deadline is refreshed to the
// keep-alive idle timeout before every frame, and each response write sets a
// fresh write deadline and clears it immediately after — a reused
// multiplexed connection never inherits an expired deadline from a previous
// call (see TestMuxNoStaleDeadline).
func (n *Node) handleMux(conn net.Conn) {
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, muxServerInFlight)
	var rbuf []byte
	for {
		if err := conn.SetReadDeadline(time.Now().Add(serverIdleTimeout)); err != nil {
			return
		}
		payload, err := wire.ReadFrame(conn, rbuf)
		if err != nil {
			return
		}
		rbuf = payload[:cap(payload)]
		r := wire.NewReader(payload)
		id := r.Uint64()
		var req Request
		// Decode synchronously — the frame buffer is reused for the next
		// read, so the Request must be fully materialized before dispatch.
		if err := decodeRequestWireInto(&r, &req); err != nil {
			return
		}
		if req.Kind == kindHeartbeat || req.Kind == kindStatus || req.Kind == kindMetrics {
			// Cheap control-plane ops: answer inline, no goroutine.
			if err := n.writeMuxResponse(conn, &wmu, id, n.dispatch(&req)); err != nil {
				return
			}
		} else {
			select {
			case sem <- struct{}{}:
			case <-n.done:
				return
			}
			wg.Add(1)
			go func(id uint64, req Request) {
				defer wg.Done()
				defer func() { <-sem }()
				n.writeMuxResponse(conn, &wmu, id, n.dispatch(&req)) //nolint:errcheck
			}(id, req)
		}
		select {
		case <-n.done:
			return
		default:
		}
	}
}

// writeMuxResponse encodes one response frame into a pooled buffer and
// writes it under the connection's write lock with set-then-cleared write
// deadlines.
func (n *Node) writeMuxResponse(conn net.Conn, wmu *sync.Mutex, id uint64, resp *Response) error {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.BeginFrame()
	b.Uint64(id)
	if err := appendResponseWire(b, resp); err != nil {
		return err
	}
	if err := b.EndFrame(); err != nil {
		return err
	}
	wmu.Lock()
	defer wmu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(n.cfg.RequestTimeout)) //nolint:errcheck
	_, err := conn.Write(b.B)
	conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
	return err
}

// handleGob serves one legacy gob connection as a keep-alive
// request/response loop: the gob encoder/decoder pair persists across
// requests, matching the client pool's reused streams so type descriptors
// travel once per connection, not once per call. One-shot clients
// (roundTrip) are served identically — they close after the first response
// and the next decode returns EOF.
func (n *Node) handleGob(r io.Reader, conn net.Conn) {
	// The frame guard bounds each decoded message to MaxFrameBytes, so a
	// malformed or hostile frame errors out instead of streaming until the
	// idle timeout (see FuzzDecodeRequest).
	fr := newFrameReader(r)
	dec := gob.NewDecoder(fr)
	enc := gob.NewEncoder(conn)
	for {
		// Wait up to the keep-alive idle timeout for the next request; the
		// client pool's shorter IdleTTL normally retires the conn first.
		if err := conn.SetReadDeadline(time.Now().Add(serverIdleTimeout)); err != nil {
			return
		}
		fr.reset()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		// Fresh per-request deadline bounding handling plus response write.
		conn.SetDeadline(time.Now().Add(n.cfg.RequestTimeout)) //nolint:errcheck
		resp := n.dispatch(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		conn.SetDeadline(time.Time{}) //nolint:errcheck
		select {
		case <-n.done:
			return
		default:
		}
	}
}

// dispatch routes one decoded request to its handler.
func (n *Node) dispatch(req *Request) *Response {
	switch req.Kind {
	case kindHeartbeat:
		n.nm.hbRecv.Inc()
		n.mu.Lock()
		stored := req.Load
		// The decoded Shards/SumVers slices may be the mux read loop's scratch
		// buffers (reused next frame); intern stable copies before retaining.
		stored.Shards = internShards(n.peers[req.Load.Addr].Shards, req.Load.Shards)
		stored.SumVers = internInt64s(n.peers[req.Load.Addr].SumVers, req.Load.SumVers)
		n.peers[req.Load.Addr] = stored
		// Heartbeats double as dynamic peer discovery (Section 3.1), so a
		// restarted peer re-joins the mesh without reconfiguration.
		n.knownPeers[req.Load.Addr] = true
		n.mu.Unlock()
		if n.detector.observeBeat(req.Load.Addr, time.Now()) {
			n.nm.readmissions.Inc()
		}
		// Summary gossip (PR-7): an advertised version the store has not seen
		// triggers an async pull; steady-state beats cost a version compare.
		n.observeSummaryVersions(stored.Addr, stored.Shards, stored.SumVers)
		return &Response{}
	case kindStatus:
		return n.handleStatus()
	case kindMetrics:
		return n.handleMetrics()
	case kindPRSubtask:
		return n.handlePRSubtask(req)
	case kindAPSubtask:
		return n.handleAPSubtask(req)
	case kindShardPR:
		// Shard fan-out legs get their own SLO row: the paper's per-module
		// decomposition says PR dominates, so its tail is tracked separately
		// from the end-to-end ask objective.
		start := time.Now()
		resp := n.handleShardPR(req)
		n.slo.Observe("ShardPR", time.Since(start).Seconds(), req.Span.QID, resp.Err != "")
		return resp
	case kindShardDF:
		return n.handleShardDF(req)
	case kindShardSummary:
		return n.handleShardSummary(req)
	case kindMetricsPull:
		return n.handleMetricsPull(req)
	case kindSlow:
		return n.handleSlow(req)
	case kindEstimate:
		return n.handleEstimate(req)
	case kindAsk:
		return n.handleAsk(req)
	default:
		return &Response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

func (n *Node) handleStatus() *Response {
	n.mu.Lock()
	questions, queued := n.questions, n.queued
	n.mu.Unlock()
	return &Response{Status: &Status{
		Addr:       n.Addr(),
		Collection: n.engine.Coll.Name,
		Paragraphs: len(n.engine.Coll.Paragraphs()),
		IndexBytes: n.engine.Set.IndexBytes(),
		Questions:  questions,
		Queued:     queued,
		Peers:      n.freshPeers(),
		Uptime:     time.Since(n.started),
		Metrics:    n.statusMetrics(),
		PeerHealth: n.PeerHealthSnapshot(),
		Mux:        n.mux.Snapshot(),
		Shard:      n.shardStatus(),
		SLO:        n.slo.Status(),
	}}
}

// handleMetrics renders the node's registry in the Prometheus text format —
// the TCP twin of the qanode -metrics-addr HTTP endpoint, used by
// `qactl -metrics`.
func (n *Node) handleMetrics() *Response {
	var b strings.Builder
	if err := n.WriteMetricsText(&b); err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{MetricsText: b.String()}
}

// handlePRSubtask retrieves and scores paragraphs from the given
// sub-collections, returning references into the shared replica. The
// resulting span joins the originating question's tree via req.Span.
func (n *Node) handlePRSubtask(req *Request) *Response {
	n.nm.prRecv.Inc()
	span := n.spans.StartSpan("pr-subtask", obs.StagePR, req.Span)
	analysis := nlp.QuestionAnalysis{Keywords: req.Keywords}
	// PR partial cache: a repeated question fans the same (keywords,
	// assignment) sub-task out to this node, and the refs are pure functions
	// of the immutable replica. Keyed in the refs namespace — the local PR
	// path caches []qa.ScoredParagraph under the bare key, and a node can
	// play both roles for the same sub-task.
	key := prRefsCacheKey(req.Keywords, req.Subs)
	if v, ok := n.prCache.Get(key); ok {
		n.nm.cachePRHits.Inc()
		return &Response{ParaRefs: v.([]ParaRef), Spans: []obs.Span{span.End()}}
	}
	if n.prCache != nil {
		n.nm.cachePRMisses.Inc()
	}
	var refs []ParaRef
	for _, sub := range req.Subs {
		if !n.engine.Set.Has(sub) {
			return &Response{Err: fmt.Sprintf("sub-collection %d not held here", sub)}
		}
		rs, _ := n.engine.RetrieveSub(analysis, sub)
		scored, _ := n.engine.ScoreParagraphs(analysis, rs)
		for _, sp := range scored {
			refs = append(refs, ParaRef{ID: sp.Para.ID, Matched: sp.Matched, Score: sp.Score})
		}
	}
	n.prCache.Put(key, refs)
	return &Response{ParaRefs: refs, Spans: []obs.Span{span.End()}}
}

// handleAPSubtask runs answer processing over the referenced paragraphs.
func (n *Node) handleAPSubtask(req *Request) *Response {
	n.nm.apRecv.Inc()
	n.mu.Lock()
	n.apTasks++
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.apTasks--
		n.mu.Unlock()
	}()
	span := n.spans.StartSpan("ap-subtask", obs.StageAP, req.Span)
	analysis := nlp.QuestionAnalysis{
		Keywords:   req.Keywords,
		AnswerType: nlp.EntityType(req.AnswerType),
	}
	paras, err := n.resolveRefs(req.ParaRefs)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	answers, _ := n.engine.ExtractAnswers(analysis, paras)
	return &Response{Answers: answers, Spans: []obs.Span{span.End()}}
}

// resolveRefs maps paragraph references back to replica paragraphs.
func (n *Node) resolveRefs(refs []ParaRef) ([]qa.ScoredParagraph, error) {
	all := n.engine.Coll.Paragraphs()
	out := make([]qa.ScoredParagraph, 0, len(refs))
	for _, r := range refs {
		if r.ID < 0 || r.ID >= len(all) {
			return nil, fmt.Errorf("paragraph ref %d out of range", r.ID)
		}
		out = append(out, qa.ScoredParagraph{Para: all[r.ID], Matched: r.Matched, Score: r.Score})
	}
	return out, nil
}
