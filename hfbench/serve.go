package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/jobs"
	"repro/internal/molecule"
	"repro/internal/service"
)

// The service probe: hfserve in-process on loopback with one worker and
// an fsync'd WAL, driven by one open-loop generator over one HTTP
// connection — one server worker plus one connection on 2 CPUs.
const (
	serveWorkers  = 1
	serveConns    = 1
	pollInterval  = 2 * time.Millisecond // status poll period, small next to any job's run time
	distinctShare = 0.3                  // share of arrivals that are new content
	// offeredRate is the Poisson arrival rate, about a fifth of the ~31
	// jobs/s this mix sustains on a 2-vCPU x86-64 VM.
	offeredRate = 20.0 / 3 // jobs per second
	// drainLimit bounds how long the generator waits for the last jobs
	// after the schedule ends; a job still open then is lost.
	drainLimit = 60 * time.Second
)

var (
	serveMolecules = []string{"h2", "heh+", "water", "methane", "ammonia"}
	serveModes     = []string{jobs.ModeSerial, jobs.ModeParallel, jobs.ModeResilient}
)

// content is one distinct job: a geometry made unique by a tiny
// displacement of its last atom, and the canonical XYZ rows it was
// written from (symbol, x, y, z in angstrom with 8 decimals).
type content struct {
	mol    string
	charge int
	atoms  []xyzAtom
	ref    float64 // facade energy, filled after the schedule
}

type xyzAtom struct {
	sym     string
	x, y, z float64
}

func builtin(name string) *molecule.Molecule {
	switch name {
	case "h2":
		return molecule.H2()
	case "heh+":
		return molecule.HeHPlus()
	case "water":
		return molecule.Water()
	case "methane":
		return molecule.Methane()
	default:
		return molecule.Ammonia()
	}
}

// newContent returns distinct content number k of molecule name: its
// last atom moves off the builtin geometry along x by (k+1) µÅ.
func newContent(name string, k int) *content {
	m := builtin(name)
	c := &content{mol: name, charge: m.Charge}
	for i, a := range m.Atoms {
		x := roundTo8(a.Pos[0] / molecule.BohrPerAngstrom)
		y := roundTo8(a.Pos[1] / molecule.BohrPerAngstrom)
		z := roundTo8(a.Pos[2] / molecule.BohrPerAngstrom)
		if i == len(m.Atoms)-1 {
			x += float64(k+1) * 1e-6 // the unique physical knob
		}
		c.atoms = append(c.atoms, xyzAtom{a.Symbol, x, y, z})
	}
	return c
}

func roundTo8(v float64) float64 { return math.Round(v*1e8) / 1e8 }

// Spellings of the same content; all hash identically.
const (
	spellCanonical = iota
	spellAlias     // coordinates rewritten in exponent notation
	spellCase      // basis name in another case
	spellPermuted  // atom lines shuffled
	spellSpace     // extra blanks and tabs, another title line
	numSpellings
)

// spec writes content c in the given spelling and mode.
func (c *content) spec(spelling int, mode string, rng *rand.Rand) jobs.Spec {
	order := make([]int, len(c.atoms))
	for i := range order {
		order[i] = i
	}
	if spelling == spellPermuted {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var b strings.Builder
	title := c.mol
	if spelling == spellSpace {
		title = "  re-submitted\t" + c.mol + "  "
		fmt.Fprintf(&b, "  %d  \n%s\n", len(c.atoms), title)
	} else {
		fmt.Fprintf(&b, "%d\n%s\n", len(c.atoms), title)
	}
	for _, i := range order {
		a := c.atoms[i]
		switch spelling {
		case spellAlias:
			fmt.Fprintf(&b, "%s %.12e %.12e %.12e\n", a.sym, a.x, a.y, a.z)
		case spellSpace:
			fmt.Fprintf(&b, "\t%s   %.8f\t %.8f  %.8f  \n", a.sym, a.x, a.y, a.z)
		default:
			fmt.Fprintf(&b, "%s %.8f %.8f %.8f\n", a.sym, a.x, a.y, a.z)
		}
	}
	s := jobs.Spec{XYZ: b.String(), Charge: c.charge, Basis: "sto-3g", Mode: mode}
	if spelling == spellCase {
		s.Basis = "STO-3G"
	}
	if mode != jobs.ModeSerial {
		s.Ranks, s.Threads = 1, 1
	}
	return s
}

// facadeEnergy is the library facade's energy for a spec — the answer
// the served job must reproduce.
func facadeEnergy(s jobs.Spec) (float64, error) {
	n := s.Normalized()
	mol, err := n.ResolveMolecule()
	if err != nil {
		return 0, err
	}
	opt := repro.SCFOptions{MaxIter: n.MaxIter, ConvDens: n.ConvDens, ConvEnergy: n.ConvEnergy, Guess: n.Guess}
	var res *repro.Result
	switch n.Mode {
	case jobs.ModeSerial:
		res, err = repro.RunRHF(mol, n.Basis, opt)
	case jobs.ModeParallel:
		res, err = repro.RunParallelRHF(mol, n.Basis, repro.ParallelConfig{
			Algorithm: repro.Algorithm(n.Algorithm), Ranks: n.Ranks, Threads: n.Threads}, opt)
	default:
		res, _, err = repro.RunResilientRHF(mol, n.Basis, repro.ResilientConfig{
			Algorithm: repro.Algorithm(n.Algorithm), Ranks: n.Ranks, Threads: n.Threads}, opt)
	}
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return 0, fmt.Errorf("facade reference did not converge")
	}
	return res.Energy, nil
}

// arrival is one scheduled request.
type arrival struct {
	due      time.Time
	content  int // index into the content table
	spec     jobs.Spec
	distinct bool
}

// scheduleSeed fixes the probe's arrival trace: every traced run plays
// the same schedule, whatever the workload seed.
const scheduleSeed = 20171112

// schedule draws n = rate*dur arrivals uniformly over [0, dur) — a
// Poisson process conditioned on its count, so every run offers the same
// load. The mix is stratified the same way: exactly distinctShare of the
// arrivals (the first always) are new content, cycling through every
// molecule x mode pair; the rest re-submit a random earlier content in
// another spelling and a random mode.
func schedule(base time.Time, dur time.Duration, rate float64) ([]arrival, []*content) {
	rng := rand.New(rand.NewSource(scheduleSeed))
	n := max(int(math.Round(rate*dur.Seconds())), 1)
	offs := make([]float64, n)
	for i := range offs {
		offs[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(offs)
	isNew := make([]bool, n)
	nd := max(int(math.Round(distinctShare*float64(n))), 1)
	isNew[0] = true
	for _, i := range rng.Perm(n - 1)[:nd-1] {
		isNew[i+1] = true
	}
	type kind struct{ mol, mode string }
	var kinds []kind
	for _, m := range serveMolecules {
		for _, md := range serveModes {
			kinds = append(kinds, kind{m, md})
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	var table []*content
	out := make([]arrival, n)
	for i, off := range offs {
		a := arrival{due: base.Add(time.Duration(off * float64(time.Second)))}
		if isNew[i] {
			k := kinds[len(table)%len(kinds)]
			table = append(table, newContent(k.mol, len(table)))
			a.content, a.distinct = len(table)-1, true
			a.spec = table[a.content].spec(spellCanonical, k.mode, rng)
		} else {
			a.content = rng.Intn(len(table))
			mode := serveModes[rng.Intn(len(serveModes))]
			a.spec = table[a.content].spec(1+rng.Intn(numSpellings-1), mode, rng)
		}
		out[i] = a
	}
	return out, table
}

// serveServer is a started hfserve instance over its own WAL directory.
type serveServer struct {
	srv  *service.Server
	addr string
	dir  string
}

// startServer opens the WAL, starts the worker and HTTP listener and
// waits until /readyz answers 200.
func startServer(dir string, client *http.Client) (*serveServer, error) {
	srv, err := service.New(service.Config{Workers: serveWorkers, WALDir: dir})
	if err != nil {
		return nil, err
	}
	s := &serveServer{srv: srv, dir: dir}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		s.stop() // closes the WAL opened by service.New
		return nil, err
	}
	s.addr = addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server at %s not ready: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server (bounded) and removes its WAL directory.
func (s *serveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx)
	_ = os.RemoveAll(s.dir)
}

// serveResult is one played schedule.
type serveResult struct {
	arrivals    int
	failed      int
	firstErr    error
	latencyMS   []float64            // every completed arrival, from its due time
	submitMS    []float64            // POST round trips
	queueWaitMS []float64            // server queue wait of executed jobs
	runMS       map[string][]float64 // SCF wall of executed jobs, by mode
	lateMS      []float64
	rejected429 int
	cached      int
	coalesced   int
	resubmits   int
}

// newClient returns the generator's HTTP client: one keep-alive
// connection, no proxy.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy: nil, MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns,
			DisableCompression: true,
		},
	}
}

// runServe starts a server over a fresh WAL directory under workDir,
// plays a dur-long schedule against it and checks every job's energy
// against the library facade.
func runServe(dur time.Duration, workDir string) (*serveResult, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(dir, client)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	res := &serveResult{runMS: map[string][]float64{}}
	base := time.Now().Add(20 * time.Millisecond)
	arr, table := schedule(base, dur, offeredRate)
	res.arrivals = len(arr)
	g := &generator{client: client, url: "http://" + srv.addr, res: res}
	done := g.play(arr)

	// References: the facade's energy for each distinct content, untimed.
	for _, a := range arr {
		if a.distinct {
			e, err := facadeEnergy(a.spec)
			if err != nil {
				return nil, fmt.Errorf("facade reference: %w", err)
			}
			table[a.content].ref = e
		}
	}
	for i, a := range arr {
		d := done[i]
		fail := d.err
		if fail == nil {
			if d.status.State != jobs.StateDone || d.status.Result == nil {
				fail = fmt.Errorf("job %s ended %s: %s", d.status.ID, d.status.State, d.status.Error)
			} else if diff := math.Abs(d.status.Result.Energy - table[a.content].ref); !(diff <= energyTol) {
				fail = fmt.Errorf("job %s (%s, %s mode) energy %.10f is %.2e off the facade's",
					d.status.ID, table[a.content].mol, a.spec.Mode, d.status.Result.Energy, diff)
			}
		}
		if fail != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fail
			}
			continue
		}
		res.latencyMS = append(res.latencyMS, float64(d.completed.Sub(a.due))/float64(time.Millisecond))
		if d.executed {
			res.queueWaitMS = append(res.queueWaitMS, d.status.QueueWaitMS)
			res.runMS[d.status.Mode] = append(res.runMS[d.status.Mode], d.status.Result.WallMS)
		}
		if !a.distinct {
			res.resubmits++
			if d.cached {
				res.cached++
			}
			if d.coalesced {
				res.coalesced++
			}
		}
	}
	return res, nil
}

// completion is what the generator learned about one arrival.
type completion struct {
	status    jobs.Status
	completed time.Time // terminal instant (server clock = this process's)
	executed  bool      // the server ran an SCF for this arrival
	cached    bool
	coalesced bool
	err       error
}

// generator plays a schedule open-loop over a single connection: a send
// is never held back by an outstanding job, only by the previous send on
// the connection, and that lateness is measured.
type generator struct {
	client *http.Client
	url    string
	res    *serveResult
}

type submitReply struct {
	ID        string        `json:"id"`
	State     jobs.State    `json:"state"`
	Cached    bool          `json:"cached"`
	Coalesced bool          `json:"coalesced"`
	Result    *jobs.Outcome `json:"result"`
}

func (g *generator) play(arr []arrival) []completion {
	done := make([]completion, len(arr))
	type open struct {
		idx int
		id  string
	}
	var pending []open // accepted or coalesced, awaiting a terminal state
	var retries []int  // arrivals refused with 429, resent on the next tick
	sentAt := make([]time.Time, len(arr))
	next := 0
	lastPoll := time.Time{}
	var drainDeadline time.Time

	send := func(i int) {
		body, _ := json.Marshal(arr[i].spec)
		t0 := time.Now()
		if sentAt[i].IsZero() {
			sentAt[i] = t0
		}
		resp, err := g.client.Post(g.url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			done[i].err = err
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		now := time.Now()
		g.res.submitMS = append(g.res.submitMS, float64(now.Sub(t0))/float64(time.Millisecond))
		var rep submitReply
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			g.res.rejected429++
			retries = append(retries, i)
			return
		case http.StatusOK, http.StatusAccepted:
			if err := json.Unmarshal(raw, &rep); err != nil {
				done[i].err = err
				return
			}
		default:
			done[i].err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
			return
		}
		done[i].cached, done[i].coalesced = rep.Cached, rep.Coalesced
		if rep.State == jobs.StateDone && rep.Cached {
			done[i].status = jobs.Status{ID: rep.ID, State: rep.State, Cached: true, Result: rep.Result}
			done[i].completed = now
			return
		}
		done[i].executed = !rep.Coalesced
		pending = append(pending, open{i, rep.ID})
	}

	poll := func(o open) bool {
		resp, err := g.client.Get(g.url + "/v1/jobs/" + o.id)
		if err != nil {
			done[o.idx].err = err
			return true
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done[o.idx].err = fmt.Errorf("status of %s: HTTP %d", o.id, resp.StatusCode)
			return true
		}
		var st jobs.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			done[o.idx].err = err
			return true
		}
		if !st.State.Terminal() {
			return false
		}
		sub, err := time.Parse(time.RFC3339Nano, st.SubmittedAt)
		if err != nil {
			done[o.idx].err = err
			return true
		}
		done[o.idx].status = st
		done[o.idx].completed = sub.Add(time.Duration(st.TotalMS * float64(time.Millisecond)))
		return true
	}

	for next < len(arr) || len(pending) > 0 || len(retries) > 0 {
		now := time.Now()
		if next < len(arr) && !now.Before(arr[next].due) {
			send(next)
			next++
			continue
		}
		if len(retries) > 0 && now.Sub(lastPoll) >= pollInterval {
			i := retries[0]
			retries = retries[1:]
			lastPoll = now
			send(i)
			continue
		}
		if next == len(arr) && drainDeadline.IsZero() {
			drainDeadline = now.Add(drainLimit)
		}
		if !drainDeadline.IsZero() && now.After(drainDeadline) {
			for _, o := range pending {
				done[o.idx].err = fmt.Errorf("job %s lost: not terminal %v after the schedule", o.id, drainLimit)
			}
			for _, i := range retries {
				done[i].err = fmt.Errorf("arrival %d never admitted", i)
			}
			break
		}
		if len(pending) > 0 && now.Sub(lastPoll) >= pollInterval {
			lastPoll = now
			// The worker is FIFO: poll the oldest open job, and on a
			// terminal answer move straight on to the next.
			for len(pending) > 0 && poll(pending[0]) {
				pending = pending[1:]
			}
			continue
		}
		wait := pollInterval - now.Sub(lastPoll)
		if next < len(arr) {
			wait = min(wait, arr[next].due.Sub(now))
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	due := make([]time.Time, 0, len(arr))
	sent := make([]time.Time, 0, len(arr))
	for i := range arr {
		if !sentAt[i].IsZero() {
			due = append(due, arr[i].due)
			sent = append(sent, sentAt[i])
		}
	}
	g.res.lateMS = lateness(due, sent)
	return done
}

// serveWorkDir makes a scratch directory for WAL segments under root.
func serveWorkDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "serve-")
}
