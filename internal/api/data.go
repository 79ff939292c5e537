package api

import (
	"net/netip"
	"strconv"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/rib"
)

// Pagination bounds. A 400k-prefix table must never serialize in one
// response body: list endpoints default to a sane page and cap the
// requestable size; callers walk the cursor.
const (
	defaultCycleLimit = 20
	maxCycleLimit     = 1000
	defaultRouteLimit = 1000
	maxRouteLimit     = 10000
)

// PoPSummary is one PoP's row in GET /v1/pops.
type PoPSummary struct {
	Name          string `json:"name"`
	State         string `json:"state"`
	FeedsUp       int    `json:"feeds_up"`
	FeedsTotal    int    `json:"feeds_total"`
	SessionsUp    int    `json:"sessions_up"`
	SessionsTotal int    `json:"sessions_total"`
	Prefixes      int    `json:"prefixes"`
	Routes        int    `json:"routes"`
	Overrides     int    `json:"overrides"`
	Cycle         uint64 `json:"cycle"`
}

func popSummary(name string, c *core.Controller) PoPSummary {
	ih := c.Health().Evaluate()
	tab := c.Store().Table()
	return PoPSummary{
		Name:          name,
		State:         ih.State.String(),
		FeedsUp:       ih.FeedsUp,
		FeedsTotal:    ih.FeedsTotal,
		SessionsUp:    ih.SessionsUp,
		SessionsTotal: ih.SessionsTotal,
		Prefixes:      tab.Len(),
		Routes:        tab.RouteCount(),
		Overrides:     len(c.Installed()),
		Cycle:         c.LastSeq(),
	}
}

// HealthDoc is GET /v1/pops/{pop}/health's data payload.
type HealthDoc struct {
	State         string       `json:"state"`
	Reasons       []string     `json:"reasons,omitempty"`
	TrafficAgeMS  int64        `json:"traffic_age_ms"`
	RoutesAgeMS   int64        `json:"routes_age_ms"`
	Panics        uint64       `json:"panics"`
	FeedsUp       int          `json:"feeds_up"`
	FeedsTotal    int          `json:"feeds_total"`
	SessionsUp    int          `json:"sessions_up"`
	SessionsTotal int          `json:"sessions_total"`
	Feeds         []FeedDoc    `json:"feeds"`
	Sessions      []SessionDoc `json:"sessions"`
}

// FeedDoc is one BMP feed's liveness row.
type FeedDoc struct {
	Router string    `json:"router"`
	Up     bool      `json:"up"`
	Since  time.Time `json:"since"`
	// LastEventAgeMS is the age of the newest decoded BMP event, -1
	// when the feed never delivered one.
	LastEventAgeMS int64  `json:"last_event_age_ms"`
	Reconnects     uint64 `json:"reconnects"`
	Flushed        bool   `json:"flushed"`
}

// SessionDoc is one injection session's liveness row.
type SessionDoc struct {
	Router    string    `json:"router"`
	Up        bool      `json:"up"`
	Since     time.Time `json:"since"`
	Flaps     uint64    `json:"flaps"`
	Delivered int       `json:"delivered"`
}

func healthDoc(c *core.Controller) *HealthDoc {
	ih := c.Health().Evaluate()
	doc := &HealthDoc{
		State:         ih.State.String(),
		Reasons:       ih.Reasons,
		TrafficAgeMS:  ih.TrafficAge.Milliseconds(),
		RoutesAgeMS:   ih.RoutesAge.Milliseconds(),
		Panics:        ih.Panics,
		FeedsUp:       ih.FeedsUp,
		FeedsTotal:    ih.FeedsTotal,
		SessionsUp:    ih.SessionsUp,
		SessionsTotal: ih.SessionsTotal,
		Feeds:         []FeedDoc{},
		Sessions:      []SessionDoc{},
	}
	now := c.Now()
	for _, f := range c.Health().Feeds() {
		fd := FeedDoc{
			Router:         f.Router,
			Up:             f.Up,
			Since:          f.Since,
			LastEventAgeMS: -1,
			Reconnects:     f.Reconnects,
			Flushed:        f.Flushed,
		}
		if !f.LastEvent.IsZero() {
			fd.LastEventAgeMS = now.Sub(f.LastEvent).Milliseconds()
		}
		doc.Feeds = append(doc.Feeds, fd)
	}
	for _, s := range c.Health().Sessions() {
		doc.Sessions = append(doc.Sessions, SessionDoc{
			Router:    s.Router.String(),
			Up:        s.Up,
			Since:     s.Since,
			Flaps:     s.Flaps,
			Delivered: c.Injector().DeliveredCount(s.Router),
		})
	}
	return doc
}

// OverrideDoc is one installed override.
type OverrideDoc struct {
	Prefix    string  `json:"prefix"`
	SplitOf   string  `json:"split_of,omitempty"`
	NextHop   string  `json:"next_hop"`
	PeerClass string  `json:"peer_class"`
	FromIF    int     `json:"from_if"`
	ToIF      int     `json:"to_if"`
	RateBps   float64 `json:"rate_bps"`
	// Weights lists the members of a weighted multipath override,
	// heaviest first; absent for single-path detours.
	Weights []PathWeightDoc `json:"weights,omitempty"`
	Reason  string          `json:"reason"`
}

// PathWeightDoc is one member of a weighted multipath override.
type PathWeightDoc struct {
	NextHop   string  `json:"next_hop"`
	PeerClass string  `json:"peer_class"`
	ToIF      int     `json:"to_if"`
	WeightPct int     `json:"weight_pct"`
	RateBps   float64 `json:"rate_bps"`
}

func overrideDocs(c *core.Controller) []OverrideDoc {
	installed := c.Installed()
	out := make([]OverrideDoc, 0, len(installed))
	for _, o := range installed {
		doc := OverrideDoc{
			Prefix:  o.Prefix.String(),
			FromIF:  o.FromIF,
			ToIF:    o.ToIF,
			RateBps: o.RateBps,
			Reason:  o.Reason,
		}
		if o.SplitOf.IsValid() {
			doc.SplitOf = o.SplitOf.String()
		}
		if o.Via != nil {
			doc.NextHop = o.Via.NextHop.String()
			doc.PeerClass = o.Via.PeerClass.String()
		}
		for _, pw := range o.Multipath {
			mw := PathWeightDoc{
				ToIF:      pw.ToIF,
				WeightPct: pw.WeightPct,
				RateBps:   pw.RateBps,
			}
			if pw.Via != nil {
				mw.NextHop = pw.Via.NextHop.String()
				mw.PeerClass = pw.Via.PeerClass.String()
			}
			doc.Weights = append(doc.Weights, mw)
		}
		out = append(out, doc)
	}
	return out
}

// CycleDoc is one cycle report row in GET /v1/pops/{pop}/cycles.
type CycleDoc struct {
	Seq                 uint64             `json:"seq"`
	Time                time.Time          `json:"time"`
	Health              string             `json:"health"`
	Reasons             []string           `json:"reasons,omitempty"`
	DemandBps           float64            `json:"demand_bps"`
	DetouredBps         float64            `json:"detoured_bps"`
	Overrides           int                `json:"overrides"`
	Announced           int                `json:"announced"`
	Withdrawn           int                `json:"withdrawn"`
	Partial             int                `json:"partial"`
	ElapsedMS           float64            `json:"elapsed_ms"`
	IfUtil              map[string]float64 `json:"if_util,omitempty"`
	ResidualOverloadBps map[string]float64 `json:"residual_overload_bps,omitempty"`
}

// page is the uniform shape of a paginated data payload: a slice of
// items, how many this page holds, how many matched in total, and the
// cursor for the next page (absent when the listing is exhausted).
type page struct {
	Items     any    `json:"items"`
	Count     int    `json:"count"`
	Total     int    `json:"total"`
	NextAfter string `json:"next_after,omitempty"`
}

// cyclesPage pages through retained cycle reports, oldest first,
// keyed by sequence number: ?after=seq resumes past that cycle.
func cyclesPage(c *core.Controller, after uint64, limit int) page {
	hist := c.History()
	start := 0
	for start < len(hist) && hist[start].Seq <= after {
		start++
	}
	matched := hist[start:]
	total := len(matched)
	truncated := false
	if len(matched) > limit {
		matched = matched[:limit]
		truncated = true
	}
	inv := c.Inventory()
	items := make([]CycleDoc, 0, len(matched))
	for i := range matched {
		items = append(items, cycleDoc(&matched[i], inv))
	}
	pg := page{Items: items, Count: len(items), Total: total}
	if truncated && len(items) > 0 {
		pg.NextAfter = strconv.FormatUint(items[len(items)-1].Seq, 10)
	}
	return pg
}

func cycleDoc(r *core.CycleSummary, inv *core.Inventory) CycleDoc {
	doc := CycleDoc{
		Seq:         r.Seq,
		Time:        r.Time,
		Health:      r.Health.String(),
		Reasons:     r.HealthReasons,
		DemandBps:   r.DemandBps,
		DetouredBps: r.DetouredBps,
		Overrides:   r.Overrides,
		Announced:   r.Announced,
		Withdrawn:   r.Withdrawn,
		Partial:     r.Partial,
		ElapsedMS:   float64(r.Elapsed) / float64(time.Millisecond),
	}
	if len(r.IfUtil) > 0 {
		doc.IfUtil = make(map[string]float64, len(r.IfUtil))
		for id, u := range r.IfUtil {
			doc.IfUtil[ifName(inv, id)] = u
		}
	}
	if len(r.ResidualOverloadBps) > 0 {
		doc.ResidualOverloadBps = make(map[string]float64, len(r.ResidualOverloadBps))
		for id, bps := range r.ResidualOverloadBps {
			doc.ResidualOverloadBps[ifName(inv, id)] = bps
		}
	}
	return doc
}

// RouteDoc is one route of a prefix in GET /v1/pops/{pop}/routes.
type RouteDoc struct {
	NextHop   string   `json:"next_hop"`
	Peer      string   `json:"peer"`
	PeerAS    uint32   `json:"peer_as"`
	PeerClass string   `json:"peer_class"`
	EgressIF  int      `json:"egress_if"`
	ASPath    []uint32 `json:"as_path,omitempty"`
	Best      bool     `json:"best,omitempty"`
}

// PrefixRoutesDoc is one prefix's route list.
type PrefixRoutesDoc struct {
	Prefix string     `json:"prefix"`
	Routes []RouteDoc `json:"routes"`
}

// routesPage pages through the route table in prefix order: ?after=
// resumes past that prefix. The cursor survives table churn — it is a
// position, not an index.
func routesPage(c *core.Controller, after netip.Prefix, limit int) page {
	tab := c.Store().Table()
	prefixes := tab.Prefixes()
	rib.SortPrefixes(prefixes)
	start := 0
	if after.IsValid() {
		for start < len(prefixes) && rib.ComparePrefixes(prefixes[start], after) <= 0 {
			start++
		}
	}
	matched := prefixes[start:]
	total := len(matched)
	truncated := false
	if len(matched) > limit {
		matched = matched[:limit]
		truncated = true
	}
	items := make([]PrefixRoutesDoc, 0, len(matched))
	for _, p := range matched {
		routes := tab.Routes(p)
		doc := PrefixRoutesDoc{Prefix: p.String(), Routes: make([]RouteDoc, 0, len(routes))}
		for i, rt := range routes {
			doc.Routes = append(doc.Routes, RouteDoc{
				NextHop:   rt.NextHop.String(),
				Peer:      rt.PeerAddr.String(),
				PeerAS:    rt.PeerAS,
				PeerClass: rt.PeerClass.String(),
				EgressIF:  rt.EgressIF,
				ASPath:    rt.ASPath,
				Best:      i == 0,
			})
		}
		items = append(items, doc)
	}
	pg := page{Items: items, Count: len(items), Total: total}
	if truncated && len(items) > 0 {
		pg.NextAfter = items[len(items)-1].Prefix
	}
	return pg
}

func ifName(inv *core.Inventory, id int) string {
	if inv != nil {
		if info, ok := inv.InterfaceByID(id); ok {
			return info.Name
		}
	}
	return "if" + strconv.Itoa(id)
}
