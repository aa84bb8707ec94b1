package repro.local

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.testkit.Check.forAll
import repro.testkit.TestGraphs

/** Algorithms 2/3/4 on the local substrate: the paper's parallel example,
  * the k(1+ε) approximation guarantee (Thm 4.2), the round bound
  * (Lemma 4.1), and the GPO/LPO lemmas.
  */
class DupinLocalSpec extends AnyFunSuite {

  private def run(m: Metric, g: LocalGraph, eps: Double = 0.1,
                  gpo: Boolean = false, lpo: Boolean = false): PeelResult =
    DupinLocal.run(m, g, DupinLocal.Config(eps = eps, gpo = gpo, lpo = lpo, threads = 1))

  test("paper Fig. 5: parallel groups [u1,u2; u3,u4; u5,u6] at ε=0") {
    val res = run(DW, TestGraphs.paperExample, eps = 0.0)
    assert(res.rounds == 3)
    assert(res.order.toSeq == Seq(0, 1, 2, 3, 4, 5))
    assert(res.history(1) == 11.0 / 4) // after round 1: density 2.75
  }

  test("paper Fig. 5: best set {u3..u6} with density 2.75") {
    val res = run(DW, TestGraphs.paperExample, eps = 0.0)
    assert(math.abs(res.bestDensity - 2.75) < 1e-12)
    assert(res.bestSet.toSet == Set(2, 3, 4, 5))
  }

  test("parallel peeling needs far fewer rounds than sequential") {
    val g = TestGraphs.cliqueWithTail(8, 100)
    val seq = SequentialPeeling.run(DG, g)
    val par = run(DG, g)
    assert(par.rounds < seq.rounds / 3)
  }

  test("Lemma 4.1: rounds bounded by log_{1+eps}|V| (plus slack)") {
    forAll(TestGraphs.genGraph(maxN = 12), n = 15) { g =>
      for (eps <- Seq(0.1, 0.5)) {
        val res = run(DW, g, eps = eps)
        val bound = math.log(g.n) / math.log(1 + eps) + 2
        assert(res.rounds <= bound, s"rounds=${res.rounds} bound=$bound eps=$eps")
      }
    }
  }

  test("Theorem 4.2: k(1+eps)-approximation for DG/DW/FD") {
    for (m <- Seq(DG, DW, FD); eps <- Seq(0.1, 0.5)) {
      forAll(TestGraphs.genGraph(maxN = 10), n = 15) { g =>
        val (_, opt) = TestGraphs.bruteForceDensest(m, g)
        val res = run(m, g, eps = eps)
        assert(res.bestDensity >= opt / (m.k * (1 + eps)) - 1e-9,
          s"${m.name} eps=$eps: got ${res.bestDensity}, opt $opt")
      }
    }
  }

  test("Theorem 4.2: k(1+eps)-approximation for TDS and kCLiDS-4") {
    for (m <- Seq(TDS, KCliDS(4))) {
      forAll(TestGraphs.genGraph(maxN = 8, p = 0.65), n = 10) { g =>
        val (_, opt) = TestGraphs.bruteForceDensest(m, g)
        val res = run(m, g)
        assert(res.bestDensity >= opt / (m.k * 1.1) - 1e-9,
          s"${m.name}: got ${res.bestDensity}, opt $opt")
      }
    }
  }

  test("approximation holds with GPO and LPO enabled (Lemma 5.3)") {
    for (m <- Seq(DG, DW, FD)) {
      forAll(TestGraphs.genGraph(maxN = 10), n = 15) { g =>
        val (_, opt) = TestGraphs.bruteForceDensest(m, g)
        for ((gpo, lpo) <- Seq((true, false), (true, true))) {
          val res = run(m, g, gpo = gpo, lpo = lpo)
          assert(res.bestDensity >= opt / (m.k * 1.1) - 1e-9,
            s"${m.name} gpo=$gpo lpo=$lpo: got ${res.bestDensity}, opt $opt")
        }
      }
    }
  }

  test("GPO reaches essentially the same best density as plain Dupin (§6.3)") {
    var equal = 0; var total = 0
    forAll(TestGraphs.genGraph(maxN = 12), n = 20) { g =>
      val plain = run(DW, g)
      val gpo = run(DW, g, gpo = true)
      total += 1
      if (math.abs(plain.bestDensity - gpo.bestDensity) < 1e-9) equal += 1
      // GPO's extra peels target provable long-tail vertices; the result
      // must stay within the guarantee and (empirically, as in the paper)
      // match plain Dupin almost always.
      assert(gpo.bestDensity >= plain.bestDensity * 0.9 - 1e-9)
    }
    assert(equal >= total * 3 / 4, s"GPO matched plain on only $equal/$total graphs")
  }

  test("GPO does not inflate round counts") {
    forAll(TestGraphs.genGraph(maxN = 12), n = 20) { g =>
      val plain = run(DW, g)
      val gpo = run(DW, g, gpo = true)
      assert(gpo.rounds <= plain.rounds + 2)
    }
  }

  test("LPO finds a subgraph at least as dense as plain Dupin's bound") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 20) { g =>
      val plain = run(DW, g)
      val lpo = run(DW, g, gpo = true, lpo = true)
      // LPO's trims are provably density-improving (Lemma 5.2); its result
      // should match or exceed plain Dupin's (paper: up to 26% denser).
      assert(lpo.bestDensity >= plain.bestDensity * 0.95 - 1e-9)
    }
  }

  test("Lemma 5.2: removing any vertex with w_u(S) < g(S) increases g") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 20) { g =>
      val rnd = new scala.util.Random(g.n * 13L + g.m)
      val set = (0 until g.n).filter(_ => rnd.nextBoolean()).toSet
      if (set.size >= 2) {
        val mask = set.foldLeft(0)((m, v) => m | (1 << v))
        val dens = TestGraphs.subsetDensity(DW, g, mask)
        set.foreach { u =>
          val w = TestGraphs.directWeight(DW, g, set, u)
          if (w < dens - 1e-12) {
            val dAfter = TestGraphs.subsetDensity(DW, g, mask & ~(1 << u))
            assert(dAfter > dens - 1e-12, s"trimming $u did not help")
          }
        }
      }
    }
  }

  test("epsilon trades rounds for density (larger eps, fewer rounds)") {
    val g = Datasets20k.social
    val r1 = DupinLocal.run(DG, g, DupinLocal.Config(eps = 0.1, threads = 2))
    val r2 = DupinLocal.run(DG, g, DupinLocal.Config(eps = 1.0, threads = 2))
    assert(r2.rounds <= r1.rounds)
  }

  test("threads do not change the result (determinism across concurrency)") {
    val g = Datasets20k.social
    val a = DupinLocal.run(DW, g, DupinLocal.Config(threads = 1))
    val b = DupinLocal.run(DW, g, DupinLocal.Config(threads = 8))
    assert(a.order.toSeq == b.order.toSeq)
    assert(a.bestDensity == b.bestDensity)
  }

  test("runOn's frontier scans give == results to the full-scan oracle loop") {
    def same(m: Metric, g: LocalGraph, cfg: DupinLocal.Config): Unit = {
      val got = DupinLocal.run(m, g, cfg)
      val want = repro.PeelOracle.runOn(m.localState(g, cfg.threads), m.k, cfg)
      val where = s"${m.name} n=${g.n} $cfg"
      assert(got.bestSet.toSeq == want.bestSet.toSeq, s"$where: bestSet")
      assert(got.bestDensity == want.bestDensity, s"$where: bestDensity")
      assert(got.history == want.history, s"$where: history")
      assert(got.order.toSeq == want.order.toSeq, s"$where: order")
      assert(got.rounds == want.rounds, s"$where: rounds")
      assert(got.longTailPeels == want.longTailPeels, s"$where: longTailPeels")
      assert(got.sparseTrims == want.sparseTrims, s"$where: sparseTrims")
      assert(got.truncated == want.truncated, s"$where: truncated")
    }
    val configs = for {
      (gpo, lpo) <- Seq((false, false), (true, false), (true, true))
      t <- Seq(1, 4)
    } yield DupinLocal.Config(gpo = gpo, lpo = lpo, threads = t)
    val cut = DupinLocal.Config(gpo = true, lpo = true, threads = 4, maxRounds = 2)
    val graphs = org.scalacheck.Gen.choose(0.1, 0.8).flatMap(p => TestGraphs.genGraph(maxN = 40, p = p))
    forAll(graphs, n = 10) { g =>
      for (m <- Seq(DG, DW, FD, TDS); cfg <- configs :+ cut) same(m, g, cfg)
    }
    for (m <- Seq(DG, DW, FD, TDS); cfg <- configs :+ cut) same(m, Datasets20k.social, cfg)
    // Long enough for the frontier scans to run on the pool.
    val wide = LocalGraph.fromEdges(40000, repro.data.GraphGen.powerLaw(40000, 120000, 0.6, seed = 3))
    for (m <- Seq(DG, FD); cfg <- configs.filter(_.threads > 1)) same(m, wide, cfg)
  }

  test("long-tail counter only increments when GPO can fire") {
    val g = TestGraphs.cliqueWithTail(8, 40)
    val plain = run(DG, g)
    assert(plain.longTailPeels == 0)
  }

  test("maxRounds cuts a run short and the result says so") {
    val g = TestGraphs.cliqueWithTail(6, 8)
    val cut = DupinLocal.run(DG, g, DupinLocal.Config(maxRounds = 1, threads = 1))
    assert(cut.rounds == 1)
    assert(cut.truncated)
    val full = run(DG, g)
    assert(full.rounds > 1)
    assert(!full.truncated)
  }

  test("deadline aborts with TleException") {
    val g = Datasets20k.social
    assertThrows[TleException] {
      DupinLocal.run(DG, g, DupinLocal.Config(deadline = System.nanoTime() - 1))
    }
  }
}

/** A mid-size fixture graph shared by the concurrency tests. */
object Datasets20k {
  lazy val social: LocalGraph = {
    val edges = repro.data.GraphGen.powerLaw(3000, 20000, 0.5, seed = 11) ++
      repro.data.GraphGen.plantBlock(repro.data.GraphGen.sample(3000, 25, 12), 0.8, 3.0, 13)
    LocalGraph.fromEdges(3000, edges)
  }
}
