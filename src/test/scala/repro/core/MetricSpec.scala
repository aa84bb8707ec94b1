package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.local.LocalGraph
import repro.testkit.Check.forAll
import repro.testkit.TestGraphs

/** The five metrics' effective weights and the incremental MetricState
  * machinery (peeling weights, f, removal updates).
  */
class MetricSpec extends AnyFunSuite {

  private def triangle = LocalGraph.fromEdges(3, Seq((0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)))

  // ---------------------------------------------------------- preparation
  test("DG rewrites every edge weight to 1 and vertex weights to 0") {
    val p = DG.prepare(triangle)
    assert(p.canonicalEdges.forall(_._3 == 1.0))
    assert(p.vw.forall(_ == 0.0))
  }

  test("DW keeps edge weights, zeroes vertex weights") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1, 2.5)), Array(1.0, 1.0))
    val p = DW.prepare(g)
    assert(p.canonicalEdges.toSeq == Seq((0, 1, 2.5)))
    assert(p.vw.forall(_ == 0.0))
  }

  test("FD edge weight is 1/log(maxdeg + c)") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1, 9.0), (1, 2, 9.0), (1, 3, 9.0)))
    val p = FD.prepare(g)
    // vertex 1 has degree 3, others 1 → every edge: 1/log(3+5)
    val expect = 1.0 / math.log(8.0)
    assert(p.canonicalEdges.forall(e => math.abs(e._3 - expect) < 1e-12))
  }

  test("FD keeps vertex weights (prior suspiciousness)") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1, 1.0)), Array(0.3, 0.7))
    assert(FD.prepare(g).vw.toSeq == Seq(0.3, 0.7))
  }

  test("property: FD weights equal 1/log(max(deg) + c) per CSR entry, bit for bit") {
    val graphs = org.scalacheck.Gen.choose(0.05, 0.9).flatMap(p => TestGraphs.genGraph(maxN = 120, p = p))
    forAll(graphs, n = 20) { g =>
      val p = FD.prepare(g)
      for (u <- 0 until g.n; i <- g.offsets(u) until g.offsets(u + 1)) {
        val v = g.nbrs(i)
        val direct = 1.0 / math.log(math.max(g.degree(u), g.degree(v)) + Metric.FraudarC)
        assert(p.ew(i) == direct, s"edge ($u,$v)")
      }
    }
  }

  test("setup passes give the same weights at 1 and 4 threads") {
    // 80K CSR entries: past the sequential cutoff, so 4 threads split the rows.
    val g = LocalGraph.fromEdges(5000, repro.data.GraphGen.powerLaw(5000, 40000, 0.6, seed = 41),
      Array.tabulate(5000)(u => (u % 7) * 0.1))
    assert(g.nbrs.length > repro.local.Par.MinPar)
    for (m <- Seq(DG, DW, FD)) {
      val (p1, p4) = (m.prepare(g, 1), m.prepare(g, 4))
      assert(java.util.Arrays.equals(p1.ew, p4.ew) && java.util.Arrays.equals(p1.vw, p4.vw), m.name)
      val (s1, s4) = (new EdgeMetricState(p1, 1), new EdgeMetricState(p1, 4))
      assert((0 until g.n).forall(u => s1.w(u) == s4.w(u)), s"${m.name} w")
      assert(s1.f == s4.f, s"${m.name} f")
    }
  }

  test("metric registry and k constants match the paper") {
    assert(DG.k == 2 && DW.k == 2 && FD.k == 2)
    assert(TDS.k == 3 && KCliDS(4).k == 4)
    assert(Metric.all.map(_.name) == Seq("DG", "DW", "FD", "TDS", "kCLiDS-4"))
  }

  // ------------------------------------------------------ edge metric state
  test("EdgeMetricState initial f and density on the paper example") {
    val st = DW.localState(TestGraphs.paperExample)
    assert(math.abs(st.f - 14.0) < 1e-12)
    assert(math.abs(st.density - 14.0 / 6) < 1e-12)
  }

  test("EdgeMetricState initial peeling weights on the paper example") {
    val st = DW.localState(TestGraphs.paperExample)
    val expected = Seq(1.0, 3.0, 7.0, 5.0, 6.0, 6.0)
    expected.zipWithIndex.foreach { case (w, u) => assert(math.abs(st.w(u) - w) < 1e-12) }
  }

  test("property: a fresh EdgeMetricState's w and f match direct recomputation") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 20) { g =>
      for (m <- Seq(DG, DW, FD)) {
        val st = new EdgeMetricState(m.prepare(g))
        val all = (0 until g.n).toSet
        all.foreach(u => assert(st.w(u) == TestGraphs.directWeight(m, g, all, u), s"${m.name} w($u)"))
        val fExpect = TestGraphs.subsetDensity(m, g, (1 << g.n) - 1) * g.n
        assert(math.abs(st.f - fExpect) < 1e-9, s"${m.name} f")
        assert(st.activeCount == g.n && all.forall(st.isActive), m.name)
      }
    }
  }

  test("EdgeMetricState removal decreases f by the peeling weight") {
    val st = DW.localState(TestGraphs.paperExample)
    val before = st.f
    val w0 = st.w(0)
    st.remove(0)
    assert(math.abs(st.f - (before - w0)) < 1e-12)
    assert(!st.isActive(0) && st.activeCount == 5)
  }

  test("EdgeMetricState updates neighbor weights after removal") {
    val st = DW.localState(TestGraphs.paperExample)
    st.remove(0) // u1: only edge u1-u2 of weight 1
    assert(math.abs(st.w(1) - 2.0) < 1e-12)
  }

  test("EdgeMetricState double removal is rejected") {
    val st = DW.localState(triangle)
    st.remove(0)
    assertThrows[IllegalArgumentException](st.remove(0))
  }

  test("property: incremental weights match direct recomputation (DW)") {
    forAll(TestGraphs.genGraph(maxN = 9), n = 25) { g =>
      val st = DW.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(g.n * 31L + g.m)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        active.foreach { v =>
          val expect = TestGraphs.directWeight(DW, g, active, v)
          assert(math.abs(st.w(v) - expect) < 1e-9, s"w($v)")
        }
        val fExpect = TestGraphs.subsetDensity(DW, g,
          active.foldLeft(0)((m, v) => m | (1 << v))) * active.size
        assert(math.abs(st.f - fExpect) < 1e-9, "f")
      }
    }
  }

  test("property: incremental weights match direct recomputation (FD)") {
    forAll(TestGraphs.genGraph(maxN = 8), n = 15) { g =>
      val st = FD.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(g.n * 17L)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        active.foreach { v =>
          val expect = TestGraphs.directWeight(FD, g, active, v)
          assert(math.abs(st.w(v) - expect) < 1e-9)
        }
      }
    }
  }

  /** Removes `g`'s vertices in random batches through `removeBatch`, at 1
    * and at 4 threads, against a copy that removes each batch one vertex at
    * a time; every w and f must be `==`. The first batch is about half the
    * vertices, which at 4 threads takes the parallel pull path; the second,
    * as large, is in descending order, which must take the push path.
    */
  private def assertEdgeBatches(m: Metric, g: LocalGraph, seed: Long): Unit =
    for (t <- Seq(1, 4)) {
      val batched = new EdgeMetricState(m.prepare(g))
      val single = new EdgeMetricState(m.prepare(g))
      val rnd = new scala.util.Random(seed)
      var active = (0 until g.n).toVector
      var step = 0
      while (active.nonEmpty) {
        val size = if (step <= 1) math.max(2, active.size / 2) else 1 + rnd.nextInt(1 + active.size / 3)
        val picked = rnd.shuffle(active).take(size).sorted
        val us = (if (step == 1) picked.reverse else picked).toArray
        batched.removeBatch(us, t)
        us.foreach(single.remove)
        active = active.filterNot(us.toSet)
        val where = s"${m.name} t=$t batch $step"
        assert(batched.f == single.f, s"$where: f")
        assert(batched.activeCount == single.activeCount, s"$where: |S|")
        (0 until g.n).foreach { u =>
          assert(batched.isActive(u) == single.isActive(u), s"$where: active($u)")
          assert(batched.w(u) == single.w(u), s"$where: w($u)")
        }
        step += 1
      }
    }

  test("property: EdgeMetricState.removeBatch is bit-identical to one remove per vertex") {
    val graphs = org.scalacheck.Gen.choose(0.05, 0.9).flatMap(p => TestGraphs.genGraph(maxN = 60, p = p))
    forAll(graphs, n = 20) { g =>
      for (m <- Seq(DG, DW, FD)) assertEdgeBatches(m, g, seed = g.n * 7L + g.m)
    }
    // Past the parallel loops' sequential cutoff, so the pull runs on 4 threads.
    val big = LocalGraph.fromEdges(2500, repro.data.GraphGen.powerLaw(2500, 15000, 0.6, seed = 5),
      Array.tabulate(2500)(u => (u % 7) * 0.1))
    for (m <- Seq(DG, DW, FD)) assertEdgeBatches(m, big, seed = 5)
  }

  // ---------------------------------------------------- clique metric state
  test("TDS counts one triangle on K3") {
    val st = TDS.localState(triangle)
    assert(st.f == 1.0)
    assert((0 until 3).forall(st.w(_) == 1.0))
  }

  test("TDS on K4: four triangles, each vertex in three") {
    val k4 = TestGraphs.cliqueWithTail(4, 0)
    val st = TDS.localState(k4)
    assert(st.f == 4.0)
    assert((0 until 4).forall(st.w(_) == 3.0))
  }

  test("kCLiDS-4 on K4: exactly one 4-clique") {
    val st = KCliDS(4).localState(TestGraphs.cliqueWithTail(4, 0))
    assert(st.f == 1.0)
    assert((0 until 4).forall(st.w(_) == 1.0))
  }

  test("kCLiDS-4 on K5: five 4-cliques, each vertex in four") {
    val st = KCliDS(4).localState(TestGraphs.cliqueWithTail(5, 0))
    assert(st.f == 5.0)
    assert((0 until 5).forall(st.w(_) == 4.0))
  }

  test("TDS removal updates: removing a K4 vertex leaves one triangle") {
    val st = TDS.localState(TestGraphs.cliqueWithTail(4, 0))
    st.remove(0)
    assert(st.f == 1.0)
    assert((1 until 4).forall(st.w(_) == 1.0))
  }

  test("clique f equals sum of weights divided by k") {
    val g = TestGraphs.cliqueWithTail(5, 3)
    for (m <- Seq(TDS, KCliDS(4))) {
      val st = m.localState(g)
      val sum = (0 until g.n).map(st.w).sum
      assert(math.abs(st.f - sum / m.k) < 1e-9, m.name)
    }
  }

  /** Every active vertex's w, and f and |S|, against brute force. */
  private def assertCounts(m: Metric, g: LocalGraph, st: MetricState, active: Set[Int]): Unit = {
    assert(st.activeCount == active.size && active.forall(st.isActive), "active set")
    val mask = active.foldLeft(0)((acc, v) => acc | (1 << v))
    assert(math.abs(st.f - TestGraphs.subsetDensity(m, g, mask) * active.size) < 1e-9, "f")
    active.foreach { v =>
      assert(math.abs(st.w(v) - TestGraphs.directWeight(m, g, active, v)) < 1e-9, s"w($v)")
    }
  }

  /** Removes random batches of 1–3 vertices through `removeBatch`, at 1 and
    * at 4 threads, checking the counts after each batch.
    */
  private def assertBatchRemovals(m: Metric, g: LocalGraph, seed: Long): Unit =
    for (t <- Seq(1, 4)) {
      val st = m.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(seed)
      while (active.nonEmpty) {
        val batch = rnd.shuffle(active.toSeq.sorted).take(1 + rnd.nextInt(3)).toArray
        st.removeBatch(batch, t); active --= batch
        assertCounts(m, g, st, active)
      }
    }

  test("property: TDS incremental counts match brute force after removals") {
    forAll(TestGraphs.genGraph(maxN = 8, p = 0.6), n = 15) { g =>
      val st = TDS.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(42)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        assertCounts(TDS, g, st, active)
      }
      assertBatchRemovals(TDS, g, seed = 42)
    }
  }

  test("property: kCLiDS-4 incremental counts match brute force after removals") {
    forAll(TestGraphs.genGraph(maxN = 7, p = 0.7), n = 10) { g =>
      val m = KCliDS(4)
      val st = m.localState(g)
      var active = (0 until g.n).toSet
      val rnd = new scala.util.Random(7)
      while (active.size > 1) {
        val u = active.toSeq(rnd.nextInt(active.size))
        st.remove(u); active -= u
        assertCounts(m, g, st, active)
      }
      assertBatchRemovals(m, g, seed = 7)
    }
  }

  test("Property 3.1: effective weights are non-negative for all metrics") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 10) { g =>
      for (m <- Seq(DG, DW, FD)) {
        val p = m.prepare(g)
        assert(p.vw.forall(_ >= 0.0), m.name)
        assert(p.canonicalEdges.forall(_._3 >= 0.0), m.name)
      }
    }
  }
}
