package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"prcu/internal/obs"
)

// tracezHandler renders one engine's flight-recorder contents as Chrome
// trace-event JSON (the chrome://tracing / Perfetto "JSON Array Format"
// wrapped in an object): one process per engine, one thread per recorder
// track ("wait", "reclaim/<shard>"), every FlightSpan as a ph:"X"
// complete event, and flow arrows (ph:"s"/"t"/"f") threaded along the
// grace-period ID so the retire → coalesce → wait → callback chain of
// each GP renders as connected arrows across tracks.
func tracezHandler(w http.ResponseWriter, r *http.Request) {
	engine, spans, ok := flightSpans(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeChromeTrace(w, engine, spans)
}

// flightSpans resolves ?engine=, replying 400 (parameter missing) or 404
// (nothing bound to it) itself; ok is false once it has.
func flightSpans(w http.ResponseWriter, r *http.Request) (engine string, spans []obs.FlightSpan, ok bool) {
	engine = r.URL.Query().Get("engine")
	if engine == "" {
		http.Error(w, "missing ?engine= (registered: "+
			strings.Join(obs.RegisteredNames(), ", ")+")", http.StatusBadRequest)
		return "", nil, false
	}
	m := obs.Registered(engine)
	if m == nil {
		http.Error(w, fmt.Sprintf("no engine registered as %q (registered: %s)",
			engine, strings.Join(obs.RegisteredNames(), ", ")), http.StatusNotFound)
		return "", nil, false
	}
	return engine, m.FlightSnapshot(), true
}

// writeChromeTrace emits spans as {"traceEvents": [...]} for engine. The
// output is deterministic for a given span set: timestamps are normalized
// to the earliest span, thread IDs follow sorted track names, events are
// sorted by (ts, tid, name), and flow chains by GP then start time — so
// golden tests can compare bytes.
func writeChromeTrace(w http.ResponseWriter, engine string, spans []obs.FlightSpan) {
	// Timestamp base and thread-ID assignment. Chrome trace timestamps are
	// microseconds; emitting fractional µs keeps nanosecond precision.
	var base int64
	tracks := map[string]int{}
	for i, sp := range spans {
		if i == 0 || sp.StartNs < base {
			base = sp.StartNs
		}
		tracks[sp.Track] = 0
	}
	names := make([]string, 0, len(tracks))
	for t := range tracks {
		names = append(names, t)
	}
	sort.Strings(names)
	for i, t := range names {
		tracks[t] = i + 1 // tid 0 is reserved for metadata convention
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	events := make([]map[string]any, 0, 2*len(spans)+len(names)+1)
	events = append(events, map[string]any{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
		"args": map[string]any{"name": "prcu: " + engine},
	})
	for _, t := range names {
		events = append(events, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": tracks[t], "ts": 0,
			"args": map[string]any{"name": t},
		})
	}

	// Complete events, one per span, sorted for determinism.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.StartNs != sb.StartNs {
			return sa.StartNs < sb.StartNs
		}
		if ta, tb := tracks[sa.Track], tracks[sb.Track]; ta != tb {
			return ta < tb
		}
		return sa.Kind < sb.Kind
	})
	for _, i := range order {
		sp := spans[i]
		args := map[string]any{"gp": sp.GP, "count": sp.Count}
		if sp.Label != "" {
			args["label"] = sp.Label
		}
		if len(sp.Blame) > 0 {
			args["blame"] = sp.Blame
		}
		dur := us(sp.EndNs) - us(sp.StartNs)
		if dur < 0 {
			dur = 0
		}
		events = append(events, map[string]any{
			"name": sp.Kind.String(), "cat": "prcu", "ph": "X",
			"ts": us(sp.StartNs), "dur": dur,
			"pid": 1, "tid": tracks[sp.Track], "args": args,
		})
	}

	// Flow arrows along each GP's causal chain.
	byGP := map[uint64][]int{}
	for i, sp := range spans {
		byGP[sp.GP] = append(byGP[sp.GP], i)
	}
	gps := make([]uint64, 0, len(byGP))
	for gp, members := range byGP {
		if len(members) >= 2 {
			gps = append(gps, gp)
		}
	}
	sort.Slice(gps, func(a, b int) bool { return gps[a] < gps[b] })
	for _, gp := range gps {
		members := byGP[gp]
		sort.SliceStable(members, func(a, b int) bool {
			return spans[members[a]].StartNs < spans[members[b]].StartNs
		})
		for step, i := range members {
			sp := spans[i]
			ev := map[string]any{
				"name": "gp", "cat": "prcu-gp", "id": gp,
				"ts": us(sp.StartNs), "pid": 1, "tid": tracks[sp.Track],
			}
			switch step {
			case 0:
				ev["ph"] = "s"
			case len(members) - 1:
				ev["ph"] = "f"
				ev["bp"] = "e" // bind to the enclosing slice, not the next one
			default:
				ev["ph"] = "t"
			}
			events = append(events, ev)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	})
}
