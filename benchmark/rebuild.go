package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// runRebuild measures the operator's rebuild: POST /admin/recompute at the
// router until every shard serves a new generation, autosaves included.
//
// Sparse: n=1536, m=4n behind 3 shards, with an open-loop reader beside it.
// Dense: n=768, m=n²/4 behind ONE shard. compute's kernel pick needs
// 2k >= n and 8*arcs >= n² for Floyd, and a 3-way split (k=n/3) would fall
// back to Dijkstra without saying so.
func runRebuild(b *bench, dense bool) error {
	n, m, shards := 1536, 4*1536, 3
	gen := graph.GenOpts{Seed: b.seed, MaxW: 8, ZeroFrac: 0.25, Directed: true}
	if dense {
		n, m, shards = 768, 768*768/4, 1
		gen.MaxW, gen.ZeroFrac = 64, 0.1
	}
	hc := &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}
	defer hc.CloseIdleConnections()

	var genS float64
	c, err := setUp(b, func() (*testCluster, error) {
		t0 := time.Now()
		g := graph.Random(n, m, gen)
		genS = time.Since(t0).Seconds()
		c, err := bootCluster(b, g, shards, true)
		if err != nil {
			return nil, err
		}
		// One discarded warm-up rollout, checked like the measured ones.
		if _, err := c.checkedRollout(hc, 0); err != nil {
			c.close()
			return nil, err
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	defer c.close()

	var paced *pacedReader
	if !dense {
		paced = c.startPaced()
		defer paced.halt()
	}

	// Every third rollout of a traced run is unrecorded, as the base of
	// trace.overhead_pct; interleaved, so that drift hits both alike.
	var secs, plain []float64
	for start, i := time.Now(), 1; time.Since(start) < b.budget || len(secs) < 3 || (b.traced() && len(plain) < 2); i++ {
		record := b.traced() && i%3 != 0
		b.rec.enable(record)
		d, err := c.checkedRollout(hc, i)
		if err != nil {
			return err
		}
		if b.traced() && !record {
			plain = append(plain, d.Seconds())
		} else {
			secs = append(secs, d.Seconds())
		}
	}
	if !b.traced() {
		reportOps(b, secs)
		return nil
	}
	b.rec.enable(true)
	if paced != nil {
		paced.halt()
	}
	recoverS, err := c.recoverAll()
	if err != nil {
		return err
	}
	b.rec.enable(false)

	b.set("graph.gen_s", genS)
	b.set("graph.reference_s", c.refS)
	b.set("oracle.recover_s", recoverS)
	b.set("trace.overhead_pct", 100*ratio(median(secs)-median(plain), median(plain)))
	reportRebuildLayers(b, paced)
	return nil
}

// checkedRollout is one operation: the timed rollout, then, outside the
// timed region, verifyReads random /dist through the router against the
// reference. (That every shard's generation advanced is the rollout's own
// completion test.)
func (c *testCluster) checkedRollout(hc *http.Client, op int) (time.Duration, error) {
	c.b.attempted.Add(1)
	pre, err := c.health(hc)
	if err != nil {
		return 0, err
	}
	root := c.b.rec.start("rebuild.op", spanRef{Op: int64(op)})
	c.b.rec.setCurrent(root.ref())
	d, err := c.rollout(hc, pre)
	root.end()
	if err != nil {
		return 0, err
	}
	c.verifyReads(hc, verifyReads, c.b.seed+int64(op))
	return d, nil
}

// pacedReader is the open-loop client beside rebuild_sparse: pacedRate
// GET /dist per second through the router, each timed from the moment it
// was due, so a stall counts against every request it delays.
type pacedReader struct {
	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool
	sent    atomic.Int64
	refused atomic.Int64
}

func (c *testCluster) startPaced() *pacedReader {
	p := &pacedReader{stop: make(chan struct{}), done: make(chan struct{})}
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	go func() {
		defer close(p.done)
		defer hc.CloseIdleConnections()
		rng := newStream(c.b.seed, 1000)
		interval := time.Second / pacedRate
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			select {
			case <-p.stop:
				return
			case <-time.After(time.Until(due)):
			}
			late := time.Since(due)
			// Each paced read is an operation of its own; its ids sit
			// above any rollout's.
			sp := c.b.rec.startAt("read.paced", spanRef{Op: 1_000_000 + int64(i)}, due)
			sp.attr("late_ns", float64(late))
			src, dst := pair(rng, c.g.N())
			p.sent.Add(1)
			if !c.getDist(hc, src, dst) {
				p.refused.Add(1)
				sp.attr("refused", 1)
			}
			sp.end()
		}
	}()
	return p
}

func (p *pacedReader) halt() {
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stop)
	}
	<-p.done
}

// recoverAll restarts every shard from its autosave directory the way a
// crashed apspd boots: RecoverDir, Publish on a fresh server, first
// answer. The time is the sum over shards. Afterwards, outside the timing,
// every recovered row is compared with the reference.
func (c *testCluster) recoverAll() (float64, error) {
	total := 0.0
	for k, be := range c.backends {
		t0 := time.Now()
		sp := c.b.rec.start("oracle.recover", spanRef{Op: 2_000_000 + int64(k)})
		snap, path, err := oracle.RecoverDir(be.dir, c.g, c.fp, nil)
		if err != nil {
			return 0, err
		}
		if snap == nil {
			return 0, fmt.Errorf("shard %d: no autosave to recover in %s", k, be.dir)
		}
		srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(pathCacheSize), Met: oracle.NewMetrics()}
		srv.Publish(snap)
		src := snap.Sources()[0]
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/dist?src=%d&dst=0", src), nil))
		sp.tag(path)
		sp.end()
		total += time.Since(t0).Seconds()

		c.b.attempted.Add(1)
		if w.Code != http.StatusOK {
			c.b.failed.Add(1)
			continue
		}
		c.checkDist(src, 0, w.Body.Bytes())
		for row, s := range snap.Sources() {
			for v := 0; v < c.g.N(); v++ {
				if d := snap.DistAt(row, v); d != c.ref[s][v] {
					c.b.wrongf("recovered shard %d: d(%d,%d) = %d, reference says %d", k, s, v, d, c.ref[s][v])
					return total, nil
				}
			}
		}
	}
	return total, nil
}

// reportRebuildLayers computes the rebuild path's ledger from the spans.
func reportRebuildLayers(b *bench, paced *pacedReader) {
	type opSum struct {
		dur, compute, build, publish, save float64
		sources, floyd, computes           float64
		allocMB, saveBytes, polls          float64
	}
	ops := map[int64]*opSum{}
	at := func(op int64) *opSum {
		if ops[op] == nil {
			ops[op] = &opSum{}
		}
		return ops[op]
	}
	var readUs, lateUs []float64
	for _, s := range b.rec.all() {
		secs := float64(s.dur()) / 1e9
		switch s.Name {
		case "rebuild.op":
			at(s.Op).dur = secs
		case "compute.apsp":
			o := at(s.Op)
			o.compute += secs
			o.computes++
			o.sources += s.Attrs["sources"]
			o.floyd += s.Attrs["floyd"]
			o.allocMB += s.Attrs["alloc_mb"]
		case "oracle.build":
			at(s.Op).build += secs
		case "oracle.publish":
			at(s.Op).publish += secs
		case "oracle.save":
			o := at(s.Op)
			o.save += secs
			o.saveBytes += s.Attrs["bytes"]
		case "router.admin_rt":
			if s.Tag == "/healthz" {
				at(s.Op).polls++
			}
		case "read.paced":
			readUs = append(readUs, float64(s.dur())/1e3)
			lateUs = append(lateUs, s.Attrs["late_ns"]/1e3)
		}
	}
	var compute, build, publish, save, saveMB, saveRate, overhead, polls, perSource, floyd, allocMB []float64
	for _, o := range ops {
		if o.dur == 0 {
			continue // spans of the warm-up or of no rollout
		}
		compute = append(compute, o.compute)
		build = append(build, o.build)
		publish = append(publish, o.publish)
		save = append(save, o.save)
		saveMB = append(saveMB, o.saveBytes/(1<<20))
		saveRate = append(saveRate, ratio(o.saveBytes/(1<<20), o.save))
		overhead = append(overhead, o.dur-o.compute-o.build-o.publish-o.save)
		polls = append(polls, o.polls)
		perSource = append(perSource, ratio(o.compute*1e6, o.sources))
		floyd = append(floyd, ratio(o.floyd, o.computes))
		allocMB = append(allocMB, o.allocMB)
	}
	b.setMedian("compute.apsp_s", compute)
	b.setMedian("compute.kernel_floyd", floyd)
	b.setMedian("compute.us_per_source", perSource)
	b.setMedian("compute.alloc_mb_per_op", allocMB)
	b.setMedian("oracle.build_s", build)
	b.setMedian("oracle.publish_s", publish)
	b.setMedian("oracle.save_s", save)
	b.setMedian("oracle.save_mb", saveMB)
	b.setMedian("oracle.save_mb_per_s", saveRate)
	b.setMedian("cluster.rollout_overhead_s", overhead)
	b.setMedian("cluster.rollout_polls", polls)
	if paced != nil {
		b.setMedian("rollout.read_p50_us", readUs)
		b.set("rollout.read_max_us", maxOf(readUs))
		b.set("rollout.late_max_us", maxOf(lateUs))
		b.set("rollout.refused_share", ratio(float64(paced.refused.Load()), float64(paced.sent.Load())))
	}
}
