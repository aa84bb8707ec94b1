package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.local.{DupinLocal, LocalGraph}
import repro.testkit.Check.forAll
import repro.testkit.PeelView.view
import repro.testkit.TestGraphs

/** The Spark dataflow engine: paper example, DuckDB oracle over the
  * weight aggregations, and exact cross-validation against the local
  * engine (same removal order and densities).
  */
class SparkPeelingSpec extends SparkSpec {
  import spark.implicits._

  private def sg(g: LocalGraph) = SparkGraph.fromLocal(spark, g)

  private def localCfg(eps: Double, gpo: Boolean, lpo: Boolean) =
    DupinLocal.Config(eps = eps, gpo = gpo, lpo = lpo, threads = 1)
  private def sparkCfg(eps: Double, gpo: Boolean, lpo: Boolean) =
    DupinLocal.Config(eps = eps, gpo = gpo, lpo = lpo)

  test("paper Fig. 5 on the Spark engine: 3 rounds, groups [u1,u2;u3,u4;u5,u6]") {
    val res = SparkPeeling.run(spark, sg(TestGraphs.paperExample), DW, sparkCfg(0.0, false, false))
    assert(res.rounds == 3)
    assert(math.abs(res.bestDensity - 2.75) < 1e-12)
    assert(res.bestSet.toSeq == Seq(2, 3, 4, 5))
  }

  test("DG on clique+tail returns the clique") {
    val res = SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(6, 8)), DG)
    assert(res.bestSet.toSeq == (0 until 6))
    assert(math.abs(res.bestDensity - 2.5) < 1e-12)
  }

  test("TDS on clique+tail returns the clique (clique recount per round)") {
    val res = SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(5, 6)), TDS)
    assert(res.bestSet.toSeq == (0 until 5))
    assert(math.abs(res.bestDensity - 2.0) < 1e-12)
  }

  test("kCLiDS-4 on clique+tail returns the clique") {
    val res = SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(5, 4)), KCliDS(4))
    assert(res.bestSet.toSeq == (0 until 5))
    assert(math.abs(res.bestDensity - 1.0) < 1e-12)
  }

  test("fraudarEdges matches the local FD preparation") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 6) { g =>
      val e = SparkPeeling.fraudarEdges(sg(g).edges)
        .collect().map(r => ((r.getLong(0).toInt, r.getLong(1).toInt), r.getDouble(2))).toMap
      val p = FD.prepare(g)
      p.canonicalEdges.foreach { case (a, b, w) =>
        assert(math.abs(e((a, b)) - w) < 1e-12, s"edge ($a,$b)")
      }
    }
  }

  test("oracle: fraudar weights match DuckDB's ln-based expression") {
    val g = TestGraphs.paperExample
    val edges = sg(g).edges
    Oracle.assertEquivalent(
      SparkPeeling.fraudarEdges(edges).select($"src", $"dst", $"w"),
      """WITH deg AS (
        |  SELECT id, COUNT(*) AS d FROM (
        |    SELECT CAST(src AS BIGINT) AS id FROM e
        |    UNION ALL SELECT CAST(dst AS BIGINT) FROM e
        |  ) GROUP BY id)
        |SELECT CAST(e.src AS BIGINT) AS src, CAST(e.dst AS BIGINT) AS dst,
        |       1.0 / ln(greatest(ds.d, dd.d) + 5.0) AS w
        |FROM e JOIN deg ds ON CAST(e.src AS BIGINT) = ds.id
        |       JOIN deg dd ON CAST(e.dst AS BIGINT) = dd.id""".stripMargin,
      "e" -> edges)
  }

  test("oracle: per-vertex edge-sum peeling weights match DuckDB (DW)") {
    val g = TestGraphs.paperExample
    val edges = sg(g).edges
    val w = edges.select($"src".as("id"), $"w").union(edges.select($"dst".as("id"), $"w"))
      .groupBy("id").agg(sum("w").as("w"))
    Oracle.assertEquivalent(
      w,
      """SELECT id, SUM(w) AS w FROM (
        |  SELECT CAST(src AS BIGINT) AS id, CAST(w AS DOUBLE) AS w FROM e
        |  UNION ALL SELECT CAST(dst AS BIGINT), CAST(w AS DOUBLE) FROM e
        |) GROUP BY id""".stripMargin,
      "e" -> edges)
  }

  test("cross-engine: identical removal order and density on DG (exact)") {
    forAll(TestGraphs.genGraph(maxN = 12, weighted = false), n = 6) { g =>
      for ((gpo, lpo) <- Seq((false, false), (true, false), (true, true))) {
        val loc = DupinLocal.run(DG, g, localCfg(0.1, gpo, lpo))
        val spk = SparkPeeling.run(spark, sg(g), DG, sparkCfg(0.1, gpo, lpo))
        assert(spk.rounds == loc.rounds, s"rounds gpo=$gpo lpo=$lpo")
        assert(spk.bestDensity == loc.bestDensity, s"density gpo=$gpo lpo=$lpo")
        assert(spk.bestSet.toSeq == loc.bestSet.toSeq, s"set gpo=$gpo lpo=$lpo")
        assert(spk.order.toSeq == loc.order.toSeq, s"order gpo=$gpo lpo=$lpo")
        assert(spk.history == loc.history, s"history gpo=$gpo lpo=$lpo")
      }
    }
  }

  test("cross-engine: DW densities agree to 1e-9 (FP-order tolerance)") {
    forAll(TestGraphs.genGraph(maxN = 12), n = 6) { g =>
      // The same graph as raw rows, which `ParDetect` adds up per pair: each
      // edge once each way at half its weight (halving is exact).
      val halves = g.canonicalEdges.toSeq.flatMap { case (a, b, w) =>
        Seq((a.toLong, b.toLong, w / 2), (b.toLong, a.toLong, w / 2))
      }.toDF("src", "dst", "w")
      val inputs = Seq("canonical" -> sg(g), "halved rows" -> SparkGraph(sg(g).vertices, halves))
      for ((what, input) <- inputs; (gpo, lpo) <- Seq((false, false), (true, true))) {
        val loc = DupinLocal.run(DW, g, localCfg(0.1, gpo, lpo))
        val spk = SparkPeeling.run(spark, input, DW, sparkCfg(0.1, gpo, lpo))
        assert(math.abs(spk.bestDensity - loc.bestDensity) <
          1e-9 * math.max(1.0, loc.bestDensity), s"$what gpo=$gpo lpo=$lpo")
      }
    }
  }

  test("cross-engine: FD densities agree to 1e-9") {
    forAll(TestGraphs.genGraph(maxN = 10), n = 4) { g =>
      val loc = DupinLocal.run(FD, g, localCfg(0.1, false, false))
      val spk = SparkPeeling.run(spark, sg(g), FD, sparkCfg(0.1, false, false))
      assert(math.abs(spk.bestDensity - loc.bestDensity) <
        1e-9 * math.max(1.0, loc.bestDensity))
    }
  }

  test("cross-engine: TDS identical results (integer counts)") {
    forAll(TestGraphs.genGraph(maxN = 9, p = 0.6), n = 4) { g =>
      for ((gpo, lpo) <- Seq((false, false), (true, true))) {
        val loc = DupinLocal.run(TDS, g, localCfg(0.1, gpo, lpo))
        val spk = SparkPeeling.run(spark, sg(g), TDS, sparkCfg(0.1, gpo, lpo))
        assert(spk.bestDensity == loc.bestDensity, s"density gpo=$gpo lpo=$lpo")
        assert(spk.bestSet.toSeq == loc.bestSet.toSeq, s"set gpo=$gpo lpo=$lpo")
        assert(spk.order.toSeq == loc.order.toSeq, s"order gpo=$gpo lpo=$lpo")
        assert(spk.history == loc.history, s"history gpo=$gpo lpo=$lpo")
      }
    }
  }

  test("cross-engine: kCLiDS-4 identical results (integer counts)") {
    forAll(TestGraphs.genGraph(maxN = 9, p = 0.75), n = 4) { g =>
      val loc = DupinLocal.run(KCliDS(4), g, localCfg(0.1, true, true))
      val spk = SparkPeeling.run(spark, sg(g), KCliDS(4), sparkCfg(0.1, true, true))
      assert(spk.bestDensity == loc.bestDensity)
      assert(spk.bestSet.toSeq == loc.bestSet.toSeq)
      assert(spk.order.toSeq == loc.order.toSeq)
    }
  }

  test("maxRounds cuts a run short and the result says so") {
    val g = sg(TestGraphs.cliqueWithTail(6, 8))
    val cut = SparkPeeling.run(spark, g, DG, DupinLocal.Config(maxRounds = 1))
    assert(cut.rounds == 1)
    assert(cut.truncated)
    val full = SparkPeeling.run(spark, g, DG)
    assert(full.rounds > 1)
    assert(!full.truncated)
  }

  test("run names the smallest dangling endpoint over all partitions") {
    // One edge a partition: the far end 9 of (3, 9) comes in an earlier
    // partition than the far end 7 of (1, 7).
    val vertices = Seq(1L, 2L, 3L).map(id => (id, 0.0)).toDF("id", "vw")
    val edges = Seq((1L, 2L), (2L, 3L), (3L, 9L), (1L, 7L)).map { case (a, b) => (a, b, 1.0) }
    val g = SparkGraph(vertices, spark.sparkContext.parallelize(edges, edges.size).toDF("src", "dst", "w"))
    for (m <- Seq(DW, TDS)) {
      val err = intercept[IllegalArgumentException](SparkPeeling.run(spark, g, m))
      assert(err.getMessage.contains("edge endpoint 7 "), s"${m.name}: ${err.getMessage}")
    }
  }

  test("TDS under GPO+LPO stays within a Spark-job budget per snapshot") {
    // On this graph the run takes no job over 3 snapshots: `sg` makes local
    // relations, and its 64 input edges fit the driver budget, so the one
    // pass that checks them runs on the driver, where they are peeled.
    // Running that pass on the cluster, it took 1 job; listing the
    // triangles on the cluster first, 3 (two shuffle stages for the
    // listing, one pass that brought the rows to the driver); with each
    // peel one more pass over the table and the listing a three-way
    // self-join, 6; with the weights re-aggregated on the cluster every
    // snapshot, 21 (7.0 each); re-running the self-join every snapshot as
    // well, 50.
    val (jobs, res) = countJobs(SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(8, 30)), TDS,
      sparkCfg(0.1, true, true)))
    assert(jobs == 0, s"$jobs jobs")
    val perSnapshot = jobs.toDouble / res.history.size
    assert(perSnapshot < 5.0, s"$jobs jobs over ${res.history.size} snapshots")
  }

  test("kCLiDS-4 under GPO+LPO stays within a Spark-job budget per snapshot") {
    // No job, as for TDS: the edges are a local relation that fits the
    // driver budget. Running the first pass on the cluster, it took 1;
    // listing the 4-cliques on the cluster first, 4 (three shuffle stages
    // for the listing, one pass that brought the rows to the driver).
    val (jobs, res) = countJobs(SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(8, 30)), KCliDS(4),
      sparkCfg(0.1, true, true)))
    assert(jobs == 0, s"$jobs jobs")
    val perSnapshot = jobs.toDouble / res.history.size
    assert(perSnapshot < 5.0, s"$jobs jobs over ${res.history.size} snapshots")
  }

  test("TDS and kCLiDS-4 under GPO+LPO at budget 0 stay within a Spark-job budget per snapshot") {
    // With no driver budget every peel runs on the cluster: the first pass,
    // which checks the edges and keeps them on the cluster as state index
    // pairs, the listing's shuffle stages over those pairs (two for
    // triangles, three for 4-cliques), the initial pass over the clique
    // table and one pass per peel that leaves S non-empty: 5 jobs for TDS,
    // 6 for kCLiDS-4, as when the listing read the raw edges. Before
    // `runClique` checked the edges itself, `run` took 4 and 5 here.
    for ((m, limit) <- Seq(TDS -> 5, KCliDS(4) -> 6)) {
      val (jobs, res) = SparkPeeling.driverBudget.withValue(0L) {
        countJobs(SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(8, 30)), m, sparkCfg(0.1, true, true)))
      }
      assert(jobs <= limit, s"${m.name}: $jobs jobs")
      val perSnapshot = jobs.toDouble / res.history.size
      assert(perSnapshot < 5.0, s"${m.name}: $jobs jobs over ${res.history.size} snapshots")
    }
  }

  test("DW under GPO+LPO stays within a Spark-job budget per snapshot") {
    // No job over 3 snapshots: the initial pass runs on the driver over the
    // local relation's rows, and both peels run there. With that pass on
    // the cluster it took 1 (0.33 a snapshot); with each peel a pass over
    // the edges on the cluster, 2 (the last peel empties S and needs none);
    // with the weights re-aggregated on the cluster every snapshot and the
    // peeled ids anti-joined out of the vertex and edge frames, 27.
    val (jobs, res) = countJobs(SparkPeeling.run(spark, sg(TestGraphs.cliqueWithTail(8, 30)), DW,
      sparkCfg(0.1, true, true)))
    assert(jobs == 0, s"$jobs jobs")
    val perSnapshot = jobs.toDouble / res.history.size
    assert(perSnapshot < 5.0, s"$jobs jobs over ${res.history.size} snapshots")
  }

  test("edge ParDetect under GPO+LPO stays within a Spark-job budget per snapshot") {
    // No job over 3 snapshots: the first pass over the raw edge rows, which
    // checks the endpoints, runs on the driver over the local relation's
    // rows, and both peels run there. With that pass on the cluster, 1;
    // with a shuffle that summed repeated edges before it, 2; with the
    // endpoints also checked by a `fold` job of their own, 3.
    val g = sg(TestGraphs.cliqueWithTail(8, 30))
    val dupin = new Dupin(spark).ESusp(col("w")).LoadGraph(g.vertices, g.edges)
    val (jobs, res) = countJobs { dupin.ParDetect(); dupin.lastResult }
    assert(jobs == 0, s"$jobs jobs")
    val perSnapshot = jobs.toDouble / res.history.size
    assert(perSnapshot < 5.0, s"$jobs jobs over ${res.history.size} snapshots")
  }

  test("driver finish: budgets 0, mid-run and unbounded give identical results") {
    // Budget 0 keeps every peel on the cluster, an unbounded one moves the
    // table to the driver in the initial pass, and three quarters of the
    // initial table moves it partway through the run. A clique metric runs
    // wholly on the driver once its input edges fit (2 members a row, each
    // partition's within its share), so it also gets a budget one member
    // short of that, which lists the cliques on the cluster and moves them
    // to the driver partway through.
    // Weights whose sums depend on the order they are added in, so a driver
    // merge out of partition order would show in DW's and FD's history.
    val g = TestGraphs.cliqueChain(3 to 9, (a, b) => 0.1 + (a * 7 + b * 13) % 10 / 7.0)
    def runAt(g: LocalGraph, m: Metric, gpo: Boolean, lpo: Boolean)(budget: Long) =
      SparkPeeling.driverBudget.withValue(budget) {
        countJobs(SparkPeeling.run(spark, sg(g), m, sparkCfg(0.0, gpo, lpo)))
      }
    val jobs = Array.fill(3)(0)
    for (m <- Metric.all; (gpo, lpo) <- Seq((false, false), (true, true))) {
      val rows = if (m.edgeBased) g.canonicalEdges.length.toDouble else m.localState(g).f
      val budgets = Seq(0L, (rows * m.k * 3 / 4).toLong, Long.MaxValue)
      val runs = budgets.map(runAt(g, m, gpo, lpo))
      val what = s"${m.name} gpo=$gpo lpo=$lpo"
      runs.tail.foreach(r => assert(view(r._2) == view(runs.head._2), what))
      assert(runs(0)._1 >= runs(1)._1 && runs(1)._1 >= runs(2)._1, s"$what: jobs ${runs.map(_._1)}")
      runs.indices.foreach(i => jobs(i) += runs(i)._1)
    }
    // The mid-run budget switched partway in at least one run.
    assert(jobs(0) > jobs(1) && jobs(1) > jobs(2), s"jobs per budget ${jobs.toSeq}")
    // Budget 2·edges − 1 keeps the clique path off the driver at the start.
    // On `g` neither clique table fits it before the last peel, so this
    // runs on a chain that starts with 72 triangles: both tables start above
    // that budget and fit it with two peels still to come.
    val h = TestGraphs.cliqueChain(Seq.fill(72)(3) ++ (4 to 9))
    val under = 2L * h.canonicalEdges.length - 1
    for (m <- Metric.all.filterNot(_.edgeBased); (gpo, lpo) <- Seq((false, false), (true, true))) {
      val Seq(cluster, mid) = Seq(0L, under).map(runAt(h, m, gpo, lpo))
      val what = s"${m.name} gpo=$gpo lpo=$lpo"
      assert(view(mid._2) == view(cluster._2), what)
      assert(0 < mid._1 && mid._1 < cluster._1, s"$what: jobs ${cluster._1} at budget 0, ${mid._1} at $under")
    }
  }

  test("empty, edgeless and single-edge graphs match the local engine") {
    val graphs = Seq(
      "empty" -> LocalGraph.fromEdges(0, Nil),
      "edgeless" -> LocalGraph.fromEdges(3, Nil, Array(0.5, 0.0, 2.0)),
      "single edge" -> LocalGraph.fromEdges(2, Seq((0, 1, 1.5)), Array(0.25, 0.0)))
    for ((name, g) <- graphs; m <- Metric.all; (gpo, lpo) <- Seq((false, false), (true, true))) {
      val what = s"$name ${m.name} gpo=$gpo lpo=$lpo"
      val loc = DupinLocal.run(m, g, localCfg(0.1, gpo, lpo))
      val spk = SparkPeeling.run(spark, sg(g), m, sparkCfg(0.1, gpo, lpo))
      assert(spk.bestSet.toSeq == loc.bestSet.toSeq, what)
      assert(spk.order.toSeq == loc.order.toSeq, what)
      assert(math.abs(spk.bestDensity - loc.bestDensity) <= 1e-12 * math.max(1.0, loc.bestDensity), what)
      assert(spk.history.size == loc.history.size, what)
      spk.history.zip(loc.history).foreach { case (a, b) => assert(math.abs(a - b) <= 1e-12, what) }
      assert((spk.rounds, spk.longTailPeels, spk.sparseTrims, spk.truncated) ==
        (loc.rounds, loc.longTailPeels, loc.sparseTrims, loc.truncated), what)
    }
  }

  test("Theorem 4.2 holds on the Spark engine (DW, brute-force opt)") {
    forAll(TestGraphs.genGraph(maxN = 9), n = 5) { g =>
      val (_, opt) = TestGraphs.bruteForceDensest(DW, g)
      val res = SparkPeeling.run(spark, sg(g), DW)
      assert(res.bestDensity >= opt / 2.2 - 1e-9)
    }
  }

  test("GPO on Spark records long-tail peels on a two-hump graph") {
    // dense block + long sparse tail → after the hump the global threshold
    // dominates and sweeps the tail quickly.
    val g = TestGraphs.cliqueWithTail(8, 60)
    val plain = SparkPeeling.run(spark, sg(g), DG, sparkCfg(0.1, false, false))
    val gpo = SparkPeeling.run(spark, sg(g), DG, sparkCfg(0.1, true, false))
    assert(gpo.rounds <= plain.rounds)
  }
}
