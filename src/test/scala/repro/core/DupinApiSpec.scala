package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
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
