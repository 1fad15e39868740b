// Command qactl is the operator client for a live Q/A cluster: ask
// questions, inspect node status, scrape metrics, and dump the slow-question
// flight recorder.
//
//	qactl -node 127.0.0.1:7101 -ask "Where is the Taj Mahal?"
//	qactl -node 127.0.0.1:7101 -ask "..." -spans   # print the span tree
//	qactl -node 127.0.0.1:7101 -status             # includes SLO rows and the shard table
//	qactl -node 127.0.0.1:7101 -metrics            # Prometheus text
//	qactl -node 127.0.0.1:7101 -metrics -cluster   # merged fleet-wide exposition
//	qactl -node 127.0.0.1:7101 -slow -top 3        # worst retained questions, full span trees
//	qactl -node 127.0.0.1:7101 -estimate "..."     # Equation-9 cost prediction (no execution)
//	qactl -gate http://127.0.0.1:8080              # qagate admission/SLO status row
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distqa/internal/gate"
	"distqa/internal/live"
	"distqa/internal/obs"
)

func main() {
	node := flag.String("node", "127.0.0.1:7101", "any cluster node address")
	ask := flag.String("ask", "", "question to ask")
	spans := flag.Bool("spans", false, "with -ask: print the question's cross-node span tree")
	status := flag.Bool("status", false, "print node status")
	metrics := flag.Bool("metrics", false, "print node metrics (Prometheus text exposition)")
	cluster := flag.Bool("cluster", false, "with -metrics: pull every cluster member's registry and print the merged exposition")
	slow := flag.Bool("slow", false, "dump the node's slow-question flight recorder (worst retained questions)")
	top := flag.Int("top", 5, "with -slow: how many records to dump")
	estimate := flag.String("estimate", "", "question to cost-predict (Equation 9) without executing; sharded nodes gather exact global df over the wire")
	gateURL := flag.String("gate", "", "qagate base URL (http://host:port): print the gateway's admission and SLO status")
	timeout := flag.Duration("timeout", 60*time.Second, "request timeout")
	flag.Parse()

	switch {
	case *gateURL != "":
		st, err := gate.FetchStatus(*gateURL, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		printGateStatus(st)
	case *ask != "":
		resp, err := live.Ask(*node, *ask, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		where := resp.ServedBy
		if resp.Forwarded {
			where += " (migrated by the question dispatcher)"
		}
		if resp.CacheHit {
			where += " (answer cache hit)"
		}
		if resp.Coalesced {
			where += " (coalesced with an identical in-flight question)"
		}
		fmt.Printf("served by %s, AP workers: %d, %.1f ms\n", where, resp.APPeers, resp.ElapsedMS)
		if len(resp.Answers) == 0 {
			fmt.Println("no answers")
		}
		for i, a := range resp.Answers {
			fmt.Printf("%d. %s (%s, score %.2f)\n   ... %s ...\n", i+1, a.Text, a.Type, a.Score, a.Snippet)
		}
		if *spans {
			fmt.Println("\nspan tree:")
			obs.FormatSpanTree(os.Stdout, resp.Spans)
		}
	case *status:
		st, err := live.QueryStatus(*node, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("node %s: collection %s (%d paragraphs), %d running / %d queued, up %v\n",
			st.Addr, st.Collection, st.Paragraphs, st.Questions, st.Queued, st.Uptime.Round(time.Second))
		fmt.Printf("  index: %.1f KiB in memory (postings, dictionary, term runs)\n", float64(st.IndexBytes)/1024)
		m := st.Metrics
		fmt.Printf("  served %d questions (%d forwarded away, %d migrated here)\n",
			m.QuestionsServed, m.ForwardsOut, m.ForwardsIn)
		fmt.Printf("  sub-tasks: PR %d sent / %d received, AP %d sent / %d received\n",
			m.PRSubtasksSent, m.PRSubtasksReceived, m.APSubtasksSent, m.APSubtasksReceived)
		fmt.Printf("  heartbeats: %d sent / %d received, %d remote-call failures\n",
			m.HeartbeatsSent, m.HeartbeatsReceived, m.RequestFailures)
		fmt.Printf("  fault tolerance: %d retries, %d breaker trips, %d re-admissions\n",
			m.Retries, m.BreakerTrips, m.Readmissions)
		fmt.Printf("  conn pool: %d hits / %d misses, %d evictions, %d redials, %d open\n",
			m.PoolHits, m.PoolMisses, m.PoolEvictions, m.PoolRedials, m.PoolOpenConns)
		fmt.Printf("  mux: %d calls over %d conns (%d dials, %d redials, %d gob fallbacks), %d in flight\n",
			m.MuxCalls, m.MuxOpenConns, m.MuxDials, m.MuxRedials, m.MuxFallbacks, m.MuxInFlight)
		fmt.Printf("  answer cache: %s hit rate (%d hits / %d misses), %d coalesced\n",
			rate(m.AnswerCacheHits, m.AnswerCacheMisses), m.AnswerCacheHits, m.AnswerCacheMisses, m.AnswerCacheCoalesced)
		fmt.Printf("  PR cache: %s hit rate (%d hits / %d misses)\n",
			rate(m.PRCacheHits, m.PRCacheMisses), m.PRCacheHits, m.PRCacheMisses)
		fmt.Printf("  runtime: %d goroutines, %.1f MiB heap, GC pause p99 %.3f ms, %d flight records\n",
			m.Goroutines, float64(m.HeapAllocBytes)/(1<<20), m.GCPauseP99Ms, m.FlightRecords)
		for _, row := range st.SLO {
			printSLORow(row)
		}
		for _, mp := range st.Mux {
			if mp.GobOnly {
				fmt.Printf("  mux peer %s: gob fallback (binary codec not negotiated)\n", mp.Addr)
				continue
			}
			fmt.Printf("  mux peer %s: %d in flight, %d calls\n", mp.Addr, mp.InFlight, mp.Calls)
		}
		for _, p := range st.Peers {
			fmt.Printf("  peer %s: %d running / %d queued / %d AP sub-tasks (heard %v ago)\n",
				p.Addr, p.Questions, p.Queued, p.APTasks, time.Since(p.Sent).Round(time.Millisecond))
		}
		for _, ph := range st.PeerHealth {
			fmt.Printf("  health %s: %s (last beat %v ago), breaker %s, %d blamed failures, %d re-admissions\n",
				ph.Addr, ph.State, ph.SinceBeat.Round(time.Millisecond), ph.Breaker, ph.Failures, ph.Readmissions)
		}
		if sh := st.Shard; sh != nil {
			state := "complete"
			if !sh.Complete {
				state = "INCOMPLETE (some shard has no live replica)"
			}
			fmt.Printf("  shard map: K=%d R=%d epoch=%d, %s; this node holds shards %v (%d sub-collections)\n",
				sh.K, sh.R, sh.Epoch, state, sh.Holdings, len(sh.HoldingSubs))
			for _, row := range sh.Shards {
				replicas := "-- none --"
				if len(row.Replicas) > 0 {
					replicas = fmt.Sprint(row.Replicas)
				}
				fmt.Printf("    shard %d: subs %v, replicas %s\n", row.Shard, row.Subs, replicas)
				if row.SummaryVersion > 0 || row.RouteSkipped > 0 || row.RouteScattered > 0 || row.RouteFallbacks > 0 {
					freshness := "STALE"
					if row.SummaryFresh {
						freshness = "fresh"
					}
					fmt.Printf("      summary v%d (%s, %d terms, from %s); routed: %d skipped / %d scattered / %d fallbacks\n",
						row.SummaryVersion, freshness, row.SummaryTerms, row.SummaryFrom,
						row.RouteSkipped, row.RouteScattered, row.RouteFallbacks)
				}
			}
			fmt.Printf("  shard traffic: %d scatter PR sent / %d received, %d df gathers served, %d failovers\n",
				st.Metrics.ShardPRSent, st.Metrics.ShardPRReceived, st.Metrics.ShardDFReceived, st.Metrics.ShardFailovers)
			if m := st.Metrics; m.RoutePlansSelective+m.RoutePlansFallback > 0 {
				fmt.Printf("  selective routing: %d selective plans / %d fallbacks (%d missing, %d stale), %d shard fan-outs skipped, %d short-circuits\n",
					m.RoutePlansSelective, m.RoutePlansFallback, m.RouteFallbacksMissing, m.RouteFallbacksStale,
					m.RouteSkips, m.RouteShortCircuits)
				fmt.Printf("  summary gossip: %d pulls sent / %d served / %d failed\n",
					m.SummaryPullsSent, m.SummaryPullsServed, m.SummaryPullFailures)
			}
		}
	case *slow:
		recs, err := live.QuerySlow(*node, *top, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		if len(recs) == 0 {
			fmt.Println("flight recorder empty")
			return
		}
		for i, r := range recs {
			if i > 0 {
				fmt.Println()
			}
			header := fmt.Sprintf("#%d  qid=%d  %.1fms  %q  on %s", i+1, r.QID,
				float64(r.Duration.Microseconds())/1000, r.Question, r.Node)
			if r.Err != "" {
				header += "  ERR: " + r.Err
			}
			fmt.Println(header)
			if len(r.Annotations) > 0 {
				fmt.Printf("  annotations: %v\n", r.Annotations)
			}
			obs.FormatSpanTree(indentWriter{}, r.Spans)
		}
	case *estimate != "":
		est, err := live.QueryEstimate(*node, *estimate, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("predicted documents:  %.2f\n", est.Documents)
		fmt.Printf("predicted paragraphs: %.2f\n", est.Paragraphs)
		fmt.Printf("predicted CPU:        %.6f s (paper-model units)\n", est.CPUSeconds)
		fmt.Printf("predicted disk:       %.0f bytes\n", est.DiskBytes)
	case *metrics && *cluster:
		snaps, err := live.QueryClusterMetrics(*node, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# cluster exposition merged from %d node(s)\n", len(snaps))
		merged := obs.MergeSnapshots(snaps)
		if err := merged.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
	case *metrics:
		text, err := live.QueryMetrics(*node, *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qactl: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(text)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// printGateStatus renders a qagate Statusz: identity line, admission state,
// lifetime outcome counters, and the gateway's edge SLO rows.
func printGateStatus(st *gate.Statusz) {
	state := "serving"
	if st.Draining {
		state = "DRAINING"
	}
	fmt.Printf("gateway %s: %s, up %v, fronting %s\n",
		st.Addr, state, (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second),
		strings.Join(st.Nodes, ", "))
	fmt.Printf("  admission: %d/%d in flight, queue %d/%d (peak %d), %d client keys\n",
		st.InFlight, st.MaxInflight, st.QueueDepth, st.QueueBound, st.QueuePeak, st.ClientKeys)
	fmt.Printf("  outcomes: %d admitted (%d queued first), shed %d queue / %d rate, %d timeouts, %d backend errors, %d bad requests\n",
		st.Admitted, st.Queued, st.ShedQueue, st.ShedRate, st.Timeouts, st.BackendErrs, st.BadRequests)
	for _, row := range st.SLO {
		printSLORow(row)
	}
}

// printSLORow renders one objective's state, burn rate and tail exemplar.
func printSLORow(row obs.SLOStatus) {
	state := "OK"
	if !row.OK {
		state = "VIOLATED"
	}
	line := fmt.Sprintf("  slo %-8s p%.0f <= %.2fs over %v: observed %.3fs, burn %.2fx, %d obs (%d errors) [%s]",
		row.Op, row.Quantile*100, row.Target, row.Window, row.Observed, row.BurnRate, row.Total, row.Errors, state)
	if row.ExemplarQID != 0 {
		line += fmt.Sprintf("  exemplar qid=%d (%.3fs)", row.ExemplarQID, row.ExemplarSeconds)
	}
	fmt.Println(line)
}

// indentWriter prefixes every span-tree line with two spaces so the tree
// nests under the flight-record header.
type indentWriter struct{}

func (indentWriter) Write(p []byte) (int, error) {
	os.Stdout.WriteString("  ")
	return os.Stdout.Write(p)
}

// rate renders a hits/(hits+misses) percentage, or "-" before any traffic.
func rate(hits, misses int64) string {
	total := hits + misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", float64(hits)/float64(total)*100)
}
