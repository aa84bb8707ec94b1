package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.testkit.Check.forAll
import repro.testkit.TestGraphs

/** DataFrame clique listing and counting vs brute force, the local clique
  * state, and a DuckDB SQL oracle over the same edge table.
  */
class SparkCliquesSpec extends SparkSpec {
  import spark.implicits._

  private def edgesDf(g: repro.local.LocalGraph) =
    SparkGraph.fromLocal(spark, g).edges

  test("K3 has one triangle") {
    val e = edgesDf(TestGraphs.cliqueWithTail(3, 0))
    assert(SparkCliques.triangles(e).count() == 1)
  }

  test("K4 has four triangles and one 4-clique") {
    val e = edgesDf(TestGraphs.cliqueWithTail(4, 0))
    assert(SparkCliques.triangles(e).count() == 4)
    assert(SparkCliques.fourCliques(e).count() == 1)
  }

  test("K5 has ten triangles and five 4-cliques") {
    val e = edgesDf(TestGraphs.cliqueWithTail(5, 0))
    assert(SparkCliques.triangles(e).count() == 10)
    assert(SparkCliques.fourCliques(e).count() == 5)
  }

  test("a path has no triangles") {
    val e = edgesDf(TestGraphs.cliqueWithTail(2, 6))
    assert(SparkCliques.triangles(e).count() == 0)
  }

  test("per-vertex triangle counts on K4 + tail") {
    val e = edgesDf(TestGraphs.cliqueWithTail(4, 3))
    val counts = SparkCliques.cliqueCounts(e, 3).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert((0L to 3L).forall(counts(_) == 3.0))
    assert(!counts.contains(5L)) // tail vertex in no triangle
  }

  /** Every k-subset of `g`'s vertices that is a clique, members ascending. */
  private def bruteCliques(g: repro.local.LocalGraph, k: Int): Set[Seq[Long]] =
    (0 until g.n).combinations(k)
      .filter(_.combinations(2).forall(p => g.hasEdge(p(0), p(1))))
      .map(_.map(_.toLong)).toSet

  test("property: k-clique listings equal brute force, ascending, each clique once") {
    for ((k, p) <- Seq((3, 0.55), (4, 0.7)))
      forAll(TestGraphs.genGraph(maxN = 10, p = p), n = 8) { g =>
        val e = edgesDf(g)
        // Also with every edge whose ids sum to an even number given twice,
        // and those with an even `src` a third time.
        val repeated = e.union(e.where(($"src" + $"dst") % 2 === 0)).union(e.where($"src" % 2 === 0))
        for ((input, what) <- Seq((e, s"k=$k"), (repeated, s"k=$k, repeated edges"))) {
          val cs = SparkCliques.columns(k)
          val rows = SparkCliques.cliques(input, k).select(cs.map(col(_).cast("long")): _*)
            .collect().map(r => cs.indices.map(r.getLong))
          assert(rows.forall(r => r.zip(r.tail).forall { case (x, y) => x < y }), s"$what: a row is not ascending")
          assert(rows.distinct.length == rows.length, s"$what: a clique is listed twice")
          assert(rows.toSet == bruteCliques(g, k), what)
        }
      }
  }

  test("unsupported k rejected") {
    val e = edgesDf(TestGraphs.cliqueWithTail(3, 0))
    assertThrows[IllegalArgumentException](SparkCliques.cliqueCounts(e, 5))
  }

  test("property: Spark triangle counts equal the local clique state") {
    forAll(TestGraphs.genGraph(maxN = 9, p = 0.55), n = 10) { g =>
      val st = TDS.localState(g)
      val counts = SparkCliques.cliqueCounts(edgesDf(g), 3).collect()
        .map(r => r.getLong(0) -> r.getDouble(1)).toMap
      (0 until g.n).foreach { u =>
        assert(counts.getOrElse(u.toLong, 0.0) == st.w(u), s"vertex $u")
      }
    }
  }

  test("property: Spark 4-clique counts equal the local clique state") {
    forAll(TestGraphs.genGraph(maxN = 8, p = 0.65), n = 8) { g =>
      val st = KCliDS(4).localState(g)
      val counts = SparkCliques.cliqueCounts(edgesDf(g), 4).collect()
        .map(r => r.getLong(0) -> r.getDouble(1)).toMap
      (0 until g.n).foreach { u =>
        assert(counts.getOrElse(u.toLong, 0.0) == st.w(u), s"vertex $u")
      }
    }
  }

  test("oracle: triangle listing matches DuckDB three-way self-join") {
    val g = TestGraphs.genGraph(maxN = 10, p = 0.5)
      .pureApply(org.scalacheck.Gen.Parameters.default, org.scalacheck.rng.Seed(99))
    val e = edgesDf(g)
    val tri = SparkCliques.triangles(e)
      .select($"a".cast("long"), $"b".cast("long"), $"c".cast("long"))
    Oracle.assertEquivalent(
      tri,
      """SELECT CAST(e1.src AS BIGINT) AS a, CAST(e1.dst AS BIGINT) AS b,
        |       CAST(e2.dst AS BIGINT) AS c
        |FROM e e1 JOIN e e2 ON e1.dst = e2.src
        |          JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst""".stripMargin,
      "e" -> e)
  }

  test("oracle: 4-clique listing matches DuckDB six-way self-join") {
    // The first fixed-seed random graph with a few 4-cliques.
    val g = Iterator.from(99).map(s => TestGraphs.genGraph(maxN = 10, p = 0.7)
      .pureApply(org.scalacheck.Gen.Parameters.default, org.scalacheck.rng.Seed(s.toLong)))
      .find(bruteCliques(_, 4).size >= 3).get
    val e = edgesDf(g)
    val four = SparkCliques.fourCliques(e)
      .select($"a".cast("long"), $"b".cast("long"), $"c".cast("long"), $"d".cast("long"))
    Oracle.assertEquivalent(
      four,
      """SELECT CAST(ab.src AS BIGINT) AS a, CAST(ab.dst AS BIGINT) AS b,
        |       CAST(bc.dst AS BIGINT) AS c, CAST(cd.dst AS BIGINT) AS d
        |FROM e ab JOIN e bc ON bc.src = ab.dst
        |          JOIN e ac ON ac.src = ab.src AND ac.dst = bc.dst
        |          JOIN e cd ON cd.src = bc.dst
        |          JOIN e ad ON ad.src = ab.src AND ad.dst = cd.dst
        |          JOIN e bd ON bd.src = ab.dst AND bd.dst = cd.dst""".stripMargin,
      "e" -> e)
  }

  test("oracle: per-vertex triangle counts match DuckDB") {
    val g = TestGraphs.cliqueWithTail(5, 4)
    val e = edgesDf(g)
    val counts = SparkCliques.cliqueCounts(e, 3)
      .select($"id", $"cnt")
    Oracle.assertEquivalent(
      counts,
      """WITH tri AS (
        |  SELECT CAST(e1.src AS BIGINT) AS a, CAST(e1.dst AS BIGINT) AS b,
        |         CAST(e2.dst AS BIGINT) AS c
        |  FROM e e1 JOIN e e2 ON e1.dst = e2.src
        |            JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst)
        |SELECT id, CAST(COUNT(*) AS DOUBLE) AS cnt FROM (
        |  SELECT a AS id FROM tri
        |  UNION ALL SELECT b FROM tri
        |  UNION ALL SELECT c FROM tri
        |) GROUP BY id""".stripMargin,
      "e" -> e)
  }
}
