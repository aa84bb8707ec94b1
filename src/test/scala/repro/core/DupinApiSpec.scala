package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.SparkSpec
import repro.testkit.Check.forAll
import repro.testkit.TestGraphs

/** The Listing-1 style user API: metric plug-in via VSusp/ESusp,
  * isBenign, setEpsilon, setK.
  */
class DupinApiSpec extends SparkSpec {
  import spark.implicits._

  private def exampleVertices =
    (0L to 5L).map(id => (id, 0.1 * id)).toDF("id", "prior")
  private def exampleEdges =
    TestGraphs.paperExampleEdges.map { case (a, b, w) => (a.toLong, b.toLong, w) }
      .toDF("src", "dst", "amount")

  test("Listing 3 (DW): amount-weighted detection finds {u3..u6}") {
    val dupin = new Dupin(spark)
    val res = dupin
      .VSusp(lit(0.0))
      .ESusp(col("amount"))
      .setEpsilon(0.0)
      .setPruning(globalOpt = false, localOpt = false)
      .LoadGraph(exampleVertices, exampleEdges)
      .ParDetect()
    assert(res.toSeq == Seq(2L, 3L, 4L, 5L))
    assert(math.abs(dupin.lastResult.bestDensity - 2.75) < 1e-12)
  }

  test("Listing 2 (DG): unit edge weights, zero vertex weights") {
    val k6 = (for (i <- 0 until 6; j <- i + 1 until 6) yield (i.toLong, j.toLong, 1.0))
    val tail = (6 until 14).map(i => ((i - 1).toLong, i.toLong, 1.0))
    val edges = (k6 ++ tail).toDF("src", "dst", "amount")
    val vertices = (0L until 14L).map(id => (id, 0.0)).toDF("id", "prior")
    val dupin = new Dupin(spark)
    val res = dupin.VSusp(lit(0.0)).ESusp(lit(1.0)).setEpsilon(0.1)
      .LoadGraph(vertices, edges).ParDetect()
    assert(res.toSeq == (0L until 6L))
  }

  test("Listing 1 (FD): vertex priors contribute to detection") {
    val dupin = new Dupin(spark)
    val res = dupin
      .VSusp(col("prior"))
      .ESusp(lit(1.0))
      .setEpsilon(0.1)
      .LoadGraph(exampleVertices, exampleEdges)
      .ParDetect()
    assert(res.nonEmpty)
    assert(dupin.lastResult.bestDensity > 0)
  }

  test("isBenign removes whitelisted vertices before peeling") {
    val vertices = (0L to 5L).map(id => (id, id < 4)).toDF("id", "fraudFree")
    val dupin = new Dupin(spark)
    val res = dupin
      .ESusp(col("amount"))
      .isBenign(col("fraudFree"))
      .setEpsilon(0.0)
      .LoadGraph(vertices, exampleEdges)
      .ParDetect()
    // only u5, u6 (ids 4, 5) remain peelable
    assert(res.toSet.subsetOf(Set(4L, 5L)))
  }

  test("setK(3) switches to triangle-density detection (Listing 4)") {
    val k5 = (for (i <- 0 until 5; j <- i + 1 until 5) yield (i.toLong, j.toLong, 1.0))
    val tail = (5 until 12).map(i => ((i - 1).toLong, i.toLong, 1.0))
    val edges = (k5 ++ tail).toDF("src", "dst", "amount")
    val vertices = (0L until 12L).map(id => (id, 0.0)).toDF("id", "prior")
    val dupin = new Dupin(spark)
    val res = dupin.setK(3).setEpsilon(0.1)
      .LoadGraph(vertices, edges).ParDetect()
    assert(res.toSeq == (0L until 5L))
  }

  test("setK(3) reads Int edge ids as it reads Long ones (both clique paths)") {
    // A Long frame is read as it is; an Int one goes through a cast.
    val es = (for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)) ++ (5 until 12).map(i => (i, i - 1))
    val vertices = (0L until 12L).map(id => (id, 0.0)).toDF("id", "prior")
    for (budget <- Seq(SparkPeeling.DriverBudget, 0L)) {
      val Seq(asInt, asLong) = Seq(es.toDF("src", "dst"), es.map { case (a, b) => (a.toLong, b.toLong) }.toDF("src", "dst"))
        .map { edges =>
          SparkPeeling.driverBudget.withValue(budget) {
            val dupin = new Dupin(spark).setK(3)
            (dupin.LoadGraph(vertices, edges).ParDetect().toSeq, dupin.lastResult.history)
          }
        }
      assert(asInt == asLong && asInt._1 == (0L until 5L), s"budget $budget")
    }
  }

  // A triangle {1,2,3} whose vertex frame lacks the far ends 7, 8, 9 of
  // three more edges; the error names the smallest.
  private def rejectsDangling(dupin: Dupin): Unit = {
    val vertices = Seq(1L, 2L, 3L).map(id => (id, 0.0)).toDF("id", "prior")
    val edges = Seq((1L, 2L), (2L, 3L), (1L, 3L), (1L, 7L), (2L, 8L), (3L, 9L))
      .map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "amount")
    val err = intercept[IllegalArgumentException](dupin.LoadGraph(vertices, edges).ParDetect())
    assert(err.getMessage.contains("endpoint 7 "), err.getMessage)
  }

  test("ParDetect rejects an edge whose endpoint is not a vertex (edge metric)") {
    rejectsDangling(new Dupin(spark))
  }

  test("ParDetect rejects an edge whose endpoint is not a vertex (setK(3))") {
    rejectsDangling(new Dupin(spark).setK(3))
  }

  test("ParDetect rejects a dangling edge whose other end is benign (setK(3), both clique paths)") {
    // Vertex 4 is benign, so the edge between 9 and 4 (either way round)
    // would leave with the benign filter, but 9 is no vertex; it is also
    // smaller than the far end 12 of the edge (2, 12). The driver path and
    // the distributed one (budget 0) both check the endpoints before the
    // benign filter.
    val vertices = Seq(1L, 2L, 3L, 4L).map(id => (id, id == 4L)).toDF("id", "fraudFree")
    for (bad <- Seq((9L, 4L), (4L, 9L)); budget <- Seq(SparkPeeling.DriverBudget, 0L)) {
      val edges = Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 4L), bad, (2L, 12L)).toDF("src", "dst")
      val err = SparkPeeling.driverBudget.withValue(budget)(intercept[IllegalArgumentException](
        new Dupin(spark).setK(3).isBenign(col("fraudFree")).LoadGraph(vertices, edges).ParDetect()))
      assert(err.getMessage.contains("edge endpoint 9 "), s"edge $bad, budget $budget: ${err.getMessage}")
    }
  }

  /** A random graph as raw rows: sparse `Long` ids (negative ones too) in
    * shuffled order, about a fifth of them benign; each edge in a random
    * orientation, a third of them again reversed, plus two self-loops, all
    * shuffled.
    */
  private val genRawGraph: Gen[(Seq[(Long, Boolean)], Seq[(Long, Long)])] =
    for {
      g <- TestGraphs.genGraph(maxN = 12, p = 0.6)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      val id = Array.tabulate(g.n)(u => (u - g.n / 2).toLong * (1L << 40) + rnd.nextInt(1000))
      val edges = g.canonicalEdges.toSeq.flatMap { case (a, b, _) =>
        val e = if (rnd.nextBoolean()) (id(a), id(b)) else (id(b), id(a))
        if (rnd.nextInt(3) == 0) Seq(e, e.swap) else Seq(e)
      } ++ Seq.fill(2)(id(rnd.nextInt(g.n))).map(x => (x, x))
      (rnd.shuffle(id.toSeq.map(x => (x, rnd.nextInt(5) == 0))), rnd.shuffle(edges))
    }

  test("property: clique detection on the driver equals the distributed path") {
    def view(r: SparkPeeling.Result) =
      (r.bestSet.toSeq, r.bestDensity, r.rounds, r.longTailPeels, r.sparseTrims, r.history, r.truncated)
    forAll(genRawGraph, n = 5) { case (vs, es) =>
      val (vertices, edges) = (vs.toDF("id", "fraudFree"), es.toDF("src", "dst"))
      for (k <- Seq(3, 4); (gpo, lpo) <- Seq((false, false), (true, true))) {
        // Budget 0 lists the cliques on the cluster; the default collects
        // the edges and peels them on the driver.
        val Seq(cluster, driver) = Seq(0L, SparkPeeling.DriverBudget).map { b =>
          SparkPeeling.driverBudget.withValue(b) {
            val dupin = new Dupin(spark).setK(k).setPruning(gpo, lpo).isBenign(col("fraudFree"))
            dupin.LoadGraph(vertices, edges).ParDetect()
            view(dupin.lastResult)
          }
        }
        assert(driver == cluster, s"k=$k gpo=$gpo lpo=$lpo")
      }
    }
  }

  // Every vertex benign: nothing is left to peel, which the local engine
  // reports for an empty graph as density 0 and one snapshot.
  private def allBenign(dupin: Dupin): Unit = {
    val vertices = (0L to 5L).map(id => (id, true)).toDF("id", "fraudFree")
    val res = dupin.isBenign(col("fraudFree")).LoadGraph(vertices, exampleEdges).ParDetect()
    val loc = repro.local.DupinLocal.run(DG, repro.local.LocalGraph.fromEdges(0, Nil))
    val r = dupin.lastResult
    assert(res.isEmpty && loc.bestSet.isEmpty)
    assert(r.bestDensity == loc.bestDensity)
    assert(r.history == loc.history)
    assert((r.rounds, r.truncated) == (loc.rounds, loc.truncated))
  }

  test("all-benign vertices give the local engine's empty-graph result (edge metric)") {
    allBenign(new Dupin(spark).ESusp(col("amount")))
  }

  test("all-benign vertices give the local engine's empty-graph result (setK(3))") {
    allBenign(new Dupin(spark).setK(3))
  }

  // Vertex rows 3, 1, 2, 3, 1 around the triangle {1,2,3}: the error
  // names the smallest duplicated id.
  private def rejectsDuplicateIds(dupin: Dupin): Unit = {
    val vertices = Seq(3L, 1L, 2L, 3L, 1L).map(id => (id, 0.0)).toDF("id", "prior")
    val edges = Seq((1L, 2L, 1.0), (2L, 3L, 1.0), (1L, 3L, 1.0)).toDF("src", "dst", "amount")
    val err = intercept[IllegalArgumentException](dupin.LoadGraph(vertices, edges).ParDetect())
    assert(err.getMessage.contains("vertex id 1 "), err.getMessage)
  }

  test("ParDetect rejects a duplicated vertex id (edge metric)") {
    rejectsDuplicateIds(new Dupin(spark))
  }

  test("ParDetect rejects a duplicated vertex id (setK(3))") {
    rejectsDuplicateIds(new Dupin(spark).setK(3))
  }

  // Property 3.1: suspiciousness must be finite and non-negative.
  private def violation(dupin: Dupin): String =
    intercept[IllegalArgumentException](
      dupin.LoadGraph(exampleVertices, exampleEdges).ParDetect()).getMessage

  test("ParDetect rejects a negative VSusp (Property 3.1)") {
    val msg = violation(new Dupin(spark).VSusp(lit(-5.0)))
    assert(msg.contains("vertex 0 has suspiciousness -5.0"), msg)
  }

  test("ParDetect rejects a negative ESusp (Property 3.1)") {
    val msg = violation(new Dupin(spark).ESusp(lit(-1.0)))
    assert(msg.matches("edge \\(\\d+, \\d+\\) has suspiciousness -1\\.0;.*"), msg)
  }

  test("ParDetect rejects a NaN ESusp and names its edge (Property 3.1)") {
    val msg = violation(new Dupin(spark).ESusp(
      when(col("src") === 2L && col("dst") === 3L, lit(Double.NaN)).otherwise(col("amount"))))
    assert(msg.contains("edge (2, 3) has suspiciousness NaN"), msg)
  }

  test("setEpsilon validates input, ParDetect requires LoadGraph") {
    val dupin = new Dupin(spark)
    assertThrows[IllegalArgumentException](dupin.setEpsilon(-0.5))
    assertThrows[IllegalStateException](dupin.ParDetect())
    assertThrows[IllegalStateException](dupin.lastResult)
  }

  test("larger epsilon never increases round count on the same graph") {
    val dupinA = new Dupin(spark).ESusp(col("amount")).setEpsilon(0.05)
      .setPruning(globalOpt = false, localOpt = false)
      .LoadGraph(exampleVertices, exampleEdges)
    dupinA.ParDetect()
    val dupinB = new Dupin(spark).ESusp(col("amount")).setEpsilon(1.0)
      .setPruning(globalOpt = false, localOpt = false)
      .LoadGraph(exampleVertices, exampleEdges)
    dupinB.ParDetect()
    assert(dupinB.lastResult.rounds <= dupinA.lastResult.rounds)
  }
}
