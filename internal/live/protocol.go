// Package live is a real-socket implementation of the distributed Q/A
// architecture: node daemons over TCP with gob-encoded requests, periodic
// load heartbeats, question-dispatcher forwarding, and answer-processing
// partitioning across peers. It shares the pipeline (package qa) with the
// simulator; the difference is that here the concurrency, the network and
// the failures are real.
//
// Every node holds a replica of the collection (generated deterministically
// from the shared corpus configuration), mirroring the paper's testbed where
// each machine had a copy of the TREC collection. Paragraphs therefore
// travel as (id, score) references rather than full text.
//
// The live cluster is for demonstrations and integration tests
// (cmd/qanode, cmd/qactl, examples/livecluster); the performance
// experiments use the virtual-time simulator, whose 2001-hardware cost
// model is what the paper's numbers depend on.
package live

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"distqa/internal/obs"
	"distqa/internal/qa"
	"distqa/internal/shard"
)

// MaxFrameBytes bounds how many bytes one gob-encoded Request or Response
// may occupy on the wire. A malformed or hostile frame that keeps streaming
// bytes would otherwise hold a decode goroutine (and its buffers) until the
// idle timeout; the frame guard turns it into an immediate decode error.
const MaxFrameBytes = 16 << 20

// errFrameTooLarge is the frameReader's budget-exhausted error.
var errFrameTooLarge = errors.New("live: frame exceeds MaxFrameBytes")

// frameReader meters bytes flowing into a gob decoder, erroring once a
// single frame exceeds the budget. The keep-alive server loop and the
// connection pool reset it before each decode, so the budget applies per
// message, not per connection.
type frameReader struct {
	r         io.Reader
	remaining int64
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, remaining: MaxFrameBytes}
}

// reset restores the per-frame budget (call before each decode).
func (f *frameReader) reset() { f.remaining = MaxFrameBytes }

func (f *frameReader) Read(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errFrameTooLarge
	}
	if int64(len(p)) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.r.Read(p)
	f.remaining -= int64(n)
	return n, err
}

// decodeRequestFrame decodes one Request from raw bytes under the frame
// guard — the exact decode path the keep-alive server loop runs, factored
// out so the wire protocol is natively fuzzable (FuzzDecodeRequest).
// Malformed frames must return an error; they must never panic or hang.
func decodeRequestFrame(data []byte) (*Request, error) {
	fr := newFrameReader(bytes.NewReader(data))
	var req Request
	if err := gob.NewDecoder(fr).Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeResponseFrame decodes one Response from raw bytes under the frame
// guard (the client pool's decode path; FuzzDecodeResponse).
func decodeResponseFrame(data []byte) (*Response, error) {
	fr := newFrameReader(bytes.NewReader(data))
	var resp Response
	if err := gob.NewDecoder(fr).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Wire message kinds.
const (
	kindAsk       = "ask"       // full question
	kindAPSubtask = "apSubtask" // remote answer processing
	kindPRSubtask = "prSubtask" // remote paragraph retrieval + scoring
	kindHeartbeat = "heartbeat" // load exchange
	kindStatus    = "status"    // operator status query
	kindMetrics   = "metrics"   // operator metrics scrape (Prometheus text)
	kindShardPR   = "shardPR"   // shard-scoped paragraph retrieval + scoring
	kindShardDF   = "shardDF"   // shard document-frequency gather (df correction)
	kindEstimate  = "estimate"  // operator cost-prediction query (gob-embedded)
	// kindShardSummary pulls shard term summaries (PR-7): heartbeats advertise
	// summary versions (LoadReport.SumVers), and a node that sees a version it
	// has not stored pulls the full summary with this op. Request.Subs carries
	// the wanted shard ids; the response returns one shard.Summary per id the
	// serving node holds.
	kindShardSummary = "shardSummary"
	// kindMetricsPull gathers registry snapshots for fleet aggregation
	// (PR-6): Fleet=false returns the serving node's own snapshot;
	// Fleet=true makes the node fan the pull out to its peers and return
	// every per-node snapshot in one response (qatop, qactl -metrics -cluster).
	kindMetricsPull = "metricsPull"
	// kindSlow dumps the node's slow-question flight recorder (gob-embedded;
	// qactl -slow).
	kindSlow = "slow"
)

// Request is the single request envelope.
type Request struct {
	Kind string
	// Span is the observability context: the originating question's ID and
	// the parent span, propagated so remote sub-task spans (and forwarded
	// questions) join the originating question's span tree across nodes.
	Span obs.SpanContext
	// Ask
	Question string
	// Forwarded marks a question already migrated once (no re-forwarding,
	// preventing routing loops).
	Forwarded bool
	// TimeoutMS is the edge deadline, in milliseconds of budget remaining
	// when the request was sent (0 = no edge deadline; the node's retry
	// budget alone bounds remote work). A relative budget rather than an
	// absolute wall-clock instant, so it survives clock skew between the
	// gateway and the serving node. The ask pipeline clamps its per-question
	// deadline budget to it — forwards, ShardPR scatter legs and PR/AP
	// sub-tasks all inherit the clamped budget — and a question still queued
	// for admission when the deadline passes is failed without running.
	TimeoutMS int64
	// WantSpans asks the serving node to ship the question's span tree back
	// in Response.Spans. The tree exists on the server either way (flight
	// recorder, SLO windows, `qactl -slow`); shipping it is tracing payload —
	// often larger than the answers themselves — that only tracing clients
	// (`qactl`'s Ask helper, the forwarding path) should pay the wire cost of.
	WantSpans bool
	// PRSubtask. Subs doubles as the wanted shard ids on shardSummary pulls.
	Keywords []string
	Subs     []int
	// ShardPR / ShardDF: shard-scoped sub-tasks carry the shard they target
	// and the requester's shard-map epoch (diagnostics: a replica serving a
	// different epoch is a sign of a stale map, surfaced in spans).
	Shard int
	Epoch int64
	// APSubtask
	AnswerType int
	ParaRefs   []ParaRef
	// Heartbeat
	Load LoadReport
	// MetricsPull: Fleet asks the serving node to gather its peers'
	// snapshots too (one-hop scatter; peer pulls are sent with Fleet=false).
	Fleet bool
	// Slow bounds how many flight-recorder records to return (0 = default).
	Limit int
}

// ShardPRRequest builds a shard-scoped paragraph-retrieval request — the unit
// of sharded scatter-gather fan-out. Exported for the perf suite.
func ShardPRRequest(shard int, epoch int64, keywords []string, subs []int) *Request {
	return &Request{Kind: kindShardPR, Shard: shard, Epoch: epoch, Keywords: keywords, Subs: subs}
}

// PRSubtaskRequest builds a paragraph-retrieval sub-task request — the unit
// of remote PR fan-out. Exported for the perf suite, which benchmarks
// transports by pushing concurrent sub-tasks at a node.
func PRSubtaskRequest(keywords []string, subs []int) *Request {
	return &Request{Kind: kindPRSubtask, Keywords: keywords, Subs: subs}
}

// AskRequest builds a question request. Exported for the perf suite, which
// asks over a pooled transport so the measured delta between a cold pipeline
// run and an answer-cache hit is not drowned by per-request connection setup
// (as it would be through the one-shot Ask helper).
func AskRequest(question string) *Request {
	return &Request{Kind: kindAsk, Question: question}
}

// ParaRef identifies a scored paragraph in the shared collection replica.
type ParaRef struct {
	ID      int
	Matched int
	Score   float64
}

// LoadReport is a node's heartbeat payload.
type LoadReport struct {
	Addr      string
	Questions int // questions currently executing
	Queued    int // questions waiting for admission
	APTasks   int // remote AP sub-tasks executing
	// Shards are the shard ids whose index this node holds a replica of —
	// the shard map travels on the existing load-monitor channel (no extra
	// protocol round). Empty on unsharded nodes.
	Shards []int
	// SumVers advertises, parallel to Shards, the version of the sender's
	// term summary for each held shard (0 = no summary built). Versions are
	// content checksums, so summaries ride the gossip incrementally: a
	// heartbeat costs a handful of varints, and a peer pulls the full summary
	// (kindShardSummary) only when it sees a version it has not stored.
	SumVers []int64
	Sent    time.Time
}

// ShardDF is one sub-collection's per-keyword document frequencies, returned
// by shardDF requests so the coordinator can apply the exact global df
// correction (qa.EstimateCostFromDF) across shard-scoped replicas.
type ShardDF struct {
	Sub int
	DF  []int64
}

// Response is the single response envelope.
type Response struct {
	Err     string
	Answers []qa.Answer
	// PRSubtask / ShardPR result.
	ParaRefs []ParaRef
	// ShardDF result: per-sub document frequencies for the requested subs.
	DFs []ShardDF
	// Epoch echoes the serving node's shard-map epoch on shard-scoped
	// responses (stale-map diagnostics).
	Epoch int64
	// Summaries is the shardSummary result: one term summary per requested
	// shard the serving node holds (selective routing, PR-7).
	Summaries []shard.Summary
	// Status result.
	Status *Status
	// Estimate is the cost-prediction result (kindEstimate, qactl -estimate).
	// Like Status it is a cold operator payload and travels gob-embedded.
	Estimate *qa.CostEstimate
	// Metrics result: Prometheus-style text exposition of the node's
	// registry (kindMetrics).
	MetricsText string
	// Spans are the completed spans this request produced on the serving
	// node (and, for asks, the remote sub-task spans it adopted) — the
	// question's cross-node span tree travels back with the answer.
	Spans []obs.Span
	// Snapshots are per-node registry snapshots (kindMetricsPull): one for
	// a single-node pull, one per reachable node for a fleet pull.
	Snapshots []obs.RegistrySnapshot
	// Slow is the flight-recorder dump (kindSlow), slowest question first.
	// Like Status it is a cold operator payload and travels gob-embedded.
	Slow []obs.QuestionRecord
	// Ask result metadata.
	ServedBy  string
	Forwarded bool
	APPeers   int
	ElapsedMS float64
	// Question-cache metadata (internal/qcache): CacheHit marks an answer
	// served from the node's answer cache; Coalesced marks a duplicate
	// in-flight question that shared another call's execution (singleflight).
	CacheHit  bool
	Coalesced bool
}

// Status describes a node for operators (cmd/qactl).
type Status struct {
	Addr       string
	Collection string
	Paragraphs int
	// IndexBytes is the real in-memory size of the node's indexes —
	// postings, term dictionaries and paragraph term runs — summed over its
	// held sub-collections. Taken live from the
	// index set, so it is correct for snapshot-loaded indexes too (the
	// figure is recomputed at load, never persisted).
	IndexBytes int
	Questions  int
	Queued     int
	Peers      []LoadReport
	Uptime     time.Duration
	// Metrics is the node's cumulative metrics snapshot.
	Metrics StatusMetrics
	// PeerHealth is the node's failure-detector and circuit-breaker view of
	// every peer it has heard from (alive/suspect/dead, breaker state,
	// blamed failures) — rendered by `qactl -status`.
	PeerHealth []PeerHealth
	// Mux lists the node's outbound multiplexed connections, one row per
	// peer (in-flight depth and lifetime calls) — rendered by `qactl -status`.
	Mux []MuxPeerStatus
	// Shard is the node's shard-map view (nil when the node runs with a full
	// collection replica) — rendered by `qactl -status`.
	Shard *ShardStatus
	// SLO is the node's evaluated service-level objectives (PR-6): one row
	// per configured objective with burn rate and tail exemplar — rendered
	// by `qactl -status` and qatop.
	SLO []obs.SLOStatus
}

// ShardStatus is a node's view of the cluster shard map (Status.Shard).
type ShardStatus struct {
	K           int   // shard count
	R           int   // configured replica factor
	Epoch       int64 // shard-map epoch (bumps on placement change)
	Complete    bool  // every shard has at least one live replica
	Holdings    []int // shard ids this node holds
	HoldingSubs []int // sub-collections this node's index covers
	// Shards is the composed map: one row per shard with the live replica
	// addresses (self included as its own address).
	Shards []ShardReplicaRow
}

// ShardReplicaRow is one shard's row in ShardStatus.Shards.
type ShardReplicaRow struct {
	Shard    int
	Subs     []int
	Replicas []string
	// Selective-routing view (PR-7), zero-valued when routing is off: how
	// often this node's coordinator skipped / scattered to / fell back on the
	// shard, and the freshness of the summary it would consult.
	RouteSkipped   int64
	RouteScattered int64
	RouteFallbacks int64
	SummaryVersion int64  // 0 = no summary known
	SummaryFresh   bool   // usable at the current epoch
	SummaryFrom    string // "local", or the replica the summary was pulled from
	SummaryTerms   int    // distinct stems the summary covers
}

// MuxPeerStatus is one peer's row in Status.Mux: the state of this node's
// single multiplexed connection to that peer.
type MuxPeerStatus struct {
	Addr     string
	InFlight int   // calls currently awaiting a response
	Calls    int64 // lifetime calls over this transport to the peer
	GobOnly  bool  // peer failed codec negotiation; calls ride the gob pool
}

// StatusMetrics is the counter snapshot carried in Status (and rendered by
// qactl status): lifetime totals since the node started.
type StatusMetrics struct {
	UptimeSeconds      float64
	QuestionsServed    int64 // asks completed locally
	ForwardsOut        int64 // questions migrated away by the dispatcher
	ForwardsIn         int64 // migrated questions served here
	PRSubtasksSent     int64
	PRSubtasksReceived int64
	APSubtasksSent     int64
	APSubtasksReceived int64
	HeartbeatsSent     int64
	HeartbeatsReceived int64
	RequestFailures    int64 // remote calls that errored or timed out
	// Fault-tolerance counters (PR-3): retry attempts, circuit-breaker
	// trips and failure-detector re-admissions.
	Retries      int64
	BreakerTrips int64
	Readmissions int64
	// Connection-pool counters (live_pool_* metrics): persistent-connection
	// reuse on this node's outbound RPC path.
	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64
	PoolRedials   int64
	PoolOpenConns int64
	// Mux transport counters (live_mux_* metrics): the single multiplexed
	// binary-codec connection per peer that replaced pool checkout on the
	// RPC hot path (PR-4).
	MuxDials     int64
	MuxRedials   int64
	MuxFallbacks int64 // calls that degraded to the gob pool
	MuxOpenConns int64
	MuxCalls     int64
	MuxInFlight  int64
	// Question/PR cache counters (live_qcache_* metrics, PR-4).
	AnswerCacheHits      int64
	AnswerCacheMisses    int64
	AnswerCacheCoalesced int64
	PRCacheHits          int64
	PRCacheMisses        int64
	// Sharding counters (live_shard_* metrics, PR-5): scatter-gather
	// sub-tasks, replica failovers and the current shard-map epoch.
	ShardPRSent     int64
	ShardPRReceived int64
	ShardDFReceived int64
	ShardFailovers  int64
	ShardEpoch      int64
	// Selective-routing counters (live_route_* / live_summary_* metrics,
	// PR-7): per-shard routing verdicts, whole-plan outcomes, fan-outs the
	// summaries eliminated entirely, and summary-gossip pull traffic.
	RouteSkips            int64
	RouteScatters         int64
	RouteFallbacksMissing int64
	RouteFallbacksStale   int64
	RouteShortCircuits    int64
	RoutePlansSelective   int64
	RoutePlansFallback    int64
	SummaryPullsSent      int64
	SummaryPullsServed    int64
	SummaryPullFailures   int64
	// Go runtime gauges (PR-6), sampled when the status is built: the
	// profiling-adjacent health figures rendered by `qactl -status`.
	Goroutines     int64
	HeapAllocBytes int64
	GCPauseP99Ms   float64
	// FlightRecords is how many slow-question records the node's flight
	// recorder currently retains.
	FlightRecords int64
}

// roundTrip sends one request and decodes one response over a fresh
// connection. This is the pool-less *fallback* path of the protocol: normal
// node-to-node traffic (heartbeats, forwards, PR/AP sub-tasks) rides the
// per-peer persistent connection pool (pool.go), which reuses gob
// encoder/decoder streams to amortize the TCP handshake and gob's
// per-stream type-descriptor retransmission. One-shot dialing remains for
// CLI clients that make a single call (qactl, examples) and as the graceful
// degradation used by closed pools; the keep-alive server loop (Node.handle)
// serves both styles on the same port.
func roundTrip(addr string, req *Request, timeout time.Duration) (*Response, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("live: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return nil, fmt.Errorf("live: encode to %s: %w", addr, err)
	}
	var resp Response
	if err := gob.NewDecoder(newFrameReader(conn)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("live: decode from %s: %w", addr, err)
	}
	if resp.Err != "" {
		return &resp, fmt.Errorf("live: remote %s: %s", addr, resp.Err)
	}
	return &resp, nil
}
