package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.local.LocalGraph
import repro.testkit.TestGraphs

/** SparkGraph canonicalization and local↔DataFrame round-trips, with the
  * DuckDB oracle checking the canonicalization aggregation itself.
  */
class SparkGraphSpec extends SparkSpec {
  import spark.implicits._

  private def rawEdges = Seq(
    (1L, 0L, 2.0), (0L, 1L, 1.0), // duplicate undirected pair, reversed
    (1L, 2L, 3.0), (2L, 2L, 9.0), // self-loop must drop
    (3L, 2L, 0.5)
  ).toDF("src", "dst", "w")

  test("canonicalization: src<dst, loops dropped, weights coalesced") {
    val g = SparkGraph(spark, rawEdges)
    val rows = g.edges.orderBy("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    assert(rows.toSeq == Seq((0L, 1L, 3.0), (1L, 2L, 3.0), (2L, 3L, 0.5)))
  }

  test("oracle: canonicalization equals DuckDB group-by") {
    val g = SparkGraph(spark, rawEdges)
    Oracle.assertEquivalent(
      g.edges.select($"src", $"dst", $"w"),
      """SELECT least(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS src,
        |       greatest(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS dst,
        |       SUM(CAST(w AS DOUBLE)) AS w
        |FROM raw WHERE src <> dst
        |GROUP BY 1, 2""".stripMargin,
      "raw" -> rawEdges)
  }

  test("an edge with a null end is kept, and every metric's run names it") {
    val raw = Seq((Some(1L), Some(2L)), (None, Some(3L)), (Some(2L), Some(3L)))
      .map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "w")
    val g = SparkGraph(spark, raw)
    assert(g.edges.count() == 3)
    assert(g.vertices.orderBy("id").collect().map(_.getLong(0)).toSeq == Seq(1L, 2L, 3L))
    for (m <- Metric.all) {
      val err = intercept[IllegalArgumentException](SparkPeeling.run(spark, g, m))
      assert(err.getMessage.contains("endpoint null"), s"${m.name}: ${err.getMessage}")
    }
  }

  test("vertices default to the endpoint set with vw = 0") {
    val g = SparkGraph(spark, rawEdges)
    val vs = g.vertices.orderBy("id").collect().map(r => (r.getLong(0), r.getDouble(1)))
    assert(vs.toSeq == Seq((0L, 0.0), (1L, 0.0), (2L, 0.0), (3L, 0.0)))
  }

  test("explicit vertex weights survive, isolated vertices kept") {
    val vs = Seq((0L, 0.5), (1L, 0.0), (2L, 0.0), (3L, 0.0), (9L, 1.5)).toDF("id", "vw")
    val g = SparkGraph(spark, rawEdges, Some(vs))
    val got = g.vertices.orderBy("id").collect().map(r => (r.getLong(0), r.getDouble(1)))
    assert(got.toSeq == Seq((0L, 0.5), (1L, 0.0), (2L, 0.0), (3L, 0.0), (9L, 1.5)))
  }

  test("fromLocal/toLocal round-trips the paper example") {
    val g0 = TestGraphs.paperExample
    val rt = SparkGraph.fromLocal(spark, g0).toLocal
    assert(rt.n == g0.n)
    assert(rt.canonicalEdges.toSeq.sorted == g0.canonicalEdges.toSeq.sorted)
  }

  test("toLocal rejects a null vertex id and a duplicated one") {
    val e = Seq((0L, 1L, 1.0)).toDF("src", "dst", "w")
    val nullId = Seq((Some(0L), 0.1), (None, 0.2), (Some(1L), 0.3)).toDF("id", "vw")
    val err = intercept[IllegalArgumentException](SparkGraph(nullId, e).toLocal)
    assert(err.getMessage.contains("vertices has a row with a null id"), err.getMessage)
    val twice = Seq((0L, 0.1), (1L, 0.2), (1L, 0.3)).toDF("id", "vw")
    val dup = intercept[IllegalArgumentException](SparkGraph(twice, e).toLocal)
    assert(dup.getMessage.contains("vertex id 1 appears more than once"), dup.getMessage)
    // Edge ends: a null one, and one that an `Int` narrowing would read as 1.
    val vs = Seq((0L, 0.1), (1L, 0.2)).toDF("id", "vw")
    val far = (1L << 32) + 1
    for ((bad, named) <- Seq((None, Some(1L)) -> "null", (Some(far), Some(0L)) -> far.toString)) {
      val es = Seq((Some(0L), Some(1L), 1.0), (bad._1, bad._2, 1.0)).toDF("src", "dst", "w")
      val err = intercept[IllegalArgumentException](SparkGraph(vs, es).toLocal)
      assert(err.getMessage.contains(s"edge endpoint $named "), err.getMessage)
    }
  }

  test("fromLocal preserves vertex weights") {
    val g0 = LocalGraph.fromEdges(3, Seq((0, 1, 1.0)), Array(0.1, 0.2, 0.3))
    val rt = SparkGraph.fromLocal(spark, g0).toLocal
    assert(rt.vw.toSeq == Seq(0.1, 0.2, 0.3))
  }

  test("fromDataset matches the dataset's own LocalGraph") {
    val d = repro.data.Dataset("t", "Test", 20,
      Vector((0, 1, 1.0), (1, 2, 2.0), (0, 1, 1.5), (5, 6, 1.0)),
      Array.fill(20)(0.0), Set.empty)
    val viaSpark = SparkGraph.fromDataset(spark, d).toLocal
    // Spark drops vertices with no edges unless given; fromDataset passes
    // the full vertex table so counts must match.
    assert(viaSpark.n == 20)
    assert(viaSpark.canonicalEdges.toSeq.sorted == d.graph.canonicalEdges.toSeq.sorted)
  }

  test("oracle: degree computation matches DuckDB") {
    val g = SparkGraph.fromLocal(spark, TestGraphs.paperExample)
    val deg = g.edges.select($"src".as("id")).union(g.edges.select($"dst".as("id")))
      .groupBy("id").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(
      deg,
      """SELECT id, COUNT(*) AS deg FROM (
        |  SELECT CAST(src AS BIGINT) AS id FROM e
        |  UNION ALL SELECT CAST(dst AS BIGINT) FROM e
        |) GROUP BY id""".stripMargin,
      "e" -> g.edges)
  }
}
