package repro.core

import org.apache.spark.sql.{AnalysisException, Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{BooleanType, DoubleType, LongType}
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
  // three more edges; the error names the smallest. The same triangle with
  // a self-loop on 0, which is no vertex either, names 0.
  private def rejectsDangling(dupin: Dupin): Unit = {
    val vertices = Seq(1L, 2L, 3L).map(id => (id, 0.0)).toDF("id", "prior")
    val triangle = Seq((1L, 2L), (2L, 3L), (1L, 3L))
    for ((extra, id) <- Seq(Seq((1L, 7L), (2L, 8L), (3L, 9L)) -> 7, Seq((0L, 0L)) -> 0)) {
      val edges = (triangle ++ extra).map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "amount")
      val err = intercept[IllegalArgumentException](dupin.LoadGraph(vertices, edges).ParDetect())
      assert(err.getMessage.contains(s"endpoint $id "), err.getMessage)
    }
  }

  test("ParDetect rejects an edge whose endpoint is not a vertex (edge metric)") {
    rejectsDangling(new Dupin(spark))
  }

  test("ParDetect rejects an edge whose endpoint is not a vertex (setK(3))") {
    rejectsDangling(new Dupin(spark).setK(3))
  }

  // Vertex 4 is benign, so the edge between 9 and 4 (either way round)
  // would leave with the benign filter, but 9 is no vertex; it is also
  // smaller than the far end 12 of the edge (2, 12). The driver path and
  // the distributed one (budget 0) both check the endpoints before the
  // benign filter.
  private def rejectsBenignDangling(dupin: => Dupin): Unit = {
    val vertices = Seq(1L, 2L, 3L, 4L).map(id => (id, id == 4L)).toDF("id", "fraudFree")
    for (bad <- Seq((9L, 4L), (4L, 9L)); budget <- Seq(SparkPeeling.DriverBudget, 0L)) {
      val edges = Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 4L), bad, (2L, 12L)).toDF("src", "dst")
      val err = SparkPeeling.driverBudget.withValue(budget)(intercept[IllegalArgumentException](
        dupin.isBenign(col("fraudFree")).LoadGraph(vertices, edges).ParDetect()))
      assert(err.getMessage.contains("edge endpoint 9 "), s"edge $bad, budget $budget: ${err.getMessage}")
    }
  }

  test("ParDetect rejects a dangling edge whose other end is benign (setK(3), both clique paths)") {
    rejectsBenignDangling(new Dupin(spark).setK(3))
  }

  test("ParDetect rejects a dangling edge whose other end is benign (edge metric, both budgets)") {
    rejectsBenignDangling(new Dupin(spark))
  }

  test("ParDetect rejects a null edge endpoint (edge metric and setK(3))") {
    // 0 is a vertex, so a null read as 0 would pass as the edge (0, 3).
    val vertices = Seq(0L, 1L, 2L, 3L).map(id => (id, 0.0)).toDF("id", "prior")
    for (bad <- Seq((None, Some(3L)), (Some(3L), None));
         dupin <- Seq(new Dupin(spark), new Dupin(spark).setK(3))) {
      val edges = (Seq((Some(1L), Some(2L)), (Some(2L), Some(3L))) :+ bad).toDF("src", "dst")
      val err = intercept[IllegalArgumentException](dupin.LoadGraph(vertices, edges).ParDetect())
      assert(err.getMessage.contains("edge endpoint null "), s"edge $bad: ${err.getMessage}")
    }
  }

  test("ParDetect rejects a null vertex id (edge metric and setK(3))") {
    val vertices = Seq(Some(0L), None, Some(1L), Some(2L)).map(id => (id, 0.0)).toDF("id", "prior")
    val edges = Seq((0L, 1L), (1L, 2L), (0L, 2L)).toDF("src", "dst")
    for (dupin <- Seq(new Dupin(spark), new Dupin(spark).setK(3))) {
      val err = intercept[IllegalArgumentException](dupin.LoadGraph(vertices, edges).ParDetect())
      assert(err.getMessage.contains("null id"), err.getMessage)
    }
  }

  test("ParDetect names a dangling endpoint before a bad ESusp") {
    // Edge (2, 3) has a NaN ESusp and edge (3, 9) an end that is no vertex.
    val vertices = Seq(1L, 2L, 3L).map(id => (id, 0.0)).toDF("id", "prior")
    val edges = Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 9L)).toDF("src", "dst")
    val nan = when(col("src") === 2L && col("dst") === 3L, lit(Double.NaN)).otherwise(lit(1.0))
    for (budget <- Seq(SparkPeeling.DriverBudget, 0L)) {
      val err = SparkPeeling.driverBudget.withValue(budget)(intercept[IllegalArgumentException](
        new Dupin(spark).ESusp(nan).LoadGraph(vertices, edges).ParDetect()))
      assert(err.getMessage.contains("edge endpoint 9 "), s"budget $budget: ${err.getMessage}")
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

  private def view(r: SparkPeeling.Result) =
    (r.bestSet.toSeq, r.bestDensity, r.rounds, r.longTailPeels, r.sparseTrims, r.history, r.truncated)

  /** `view` of `dupin`'s detection on the random raw graph, at budget 0
    * (every peel on the cluster) and at the default (on the driver).
    */
  private def bothBudgets(dupin: => Dupin, vs: Seq[(Long, Boolean)], es: Seq[(Long, Long)]) = {
    val (vertices, edges) = (vs.toDF("id", "fraudFree"), es.toDF("src", "dst"))
    Seq(0L, SparkPeeling.DriverBudget).map { b =>
      SparkPeeling.driverBudget.withValue(b) {
        val d = dupin.isBenign(col("fraudFree"))
        d.LoadGraph(vertices, edges).ParDetect()
        view(d.lastResult)
      }
    }
  }

  test("property: clique detection on the driver equals the distributed path") {
    forAll(genRawGraph, n = 5) { case (vs, es) =>
      for (k <- Seq(3, 4); (gpo, lpo) <- Seq((false, false), (true, true))) {
        // Budget 0 lists the cliques on the cluster; the default collects
        // the edges and peels them on the driver.
        val Seq(cluster, driver) = bothBudgets(new Dupin(spark).setK(k).setPruning(gpo, lpo), vs, es)
        assert(driver == cluster, s"k=$k gpo=$gpo lpo=$lpo")
      }
    }
  }

  test("property: edge detection on the driver equals the distributed path") {
    // An ESusp that differs per edge and per orientation, so the sums depend
    // on the order they are added in.
    val esusp = lit(0.1) + pmod(col("src") * 7 + col("dst") * 13, lit(10L)) / 7.0
    forAll(genRawGraph, n = 5) { case (vs, es) =>
      for ((gpo, lpo) <- Seq((false, false), (true, true))) {
        val Seq(cluster, driver) = bothBudgets(new Dupin(spark).ESusp(esusp).setPruning(gpo, lpo), vs, es)
        assert(driver == cluster, s"gpo=$gpo lpo=$lpo")
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

  // The column reader (`SparkPeeling.columns`): each case reads in place
  // (the frame's own rows) or through a projection; `inPlace(false)` makes
  // every read project.
  private def bothReads[A](body: => A): Seq[A] =
    Seq(true, false).map(SparkPeeling.inPlace.withValue(_)(body))

  /** Vertices 0..7 with a prior and a benign flag for 7; a 5-clique
    * {0..4} with a tail 4-5-6-7 and an amount per edge.
    */
  private def readVertices = (0L to 7L).map(id => (id, 0.1 * id, id == 7L)).toDF("id", "prior", "fraudFree")
  private def readEdges = ((for (i <- 0L until 5L; j <- i + 1 until 5L) yield (i, j)) ++
    Seq((4L, 5L), (6L, 5L), (6L, 7L))).map { case (a, b) => (a, b, 0.5 + (a * 3 + b) % 4) }
    .toDF("src", "dst", "amount")

  test("the column reader takes literals and exact plain fields in place, and projects the rest") {
    val vs = readVertices
    val c = SparkPeeling.columns(vs, col("id") -> LongType, col("prior") -> DoubleType, lit(false) -> BooleanType)
    assert(c.frame eq vs)
    assert(c.at.toSeq == Seq(0, 1, -1))
    assert(c.constant(1).isNaN && !c.flag(null, 2))
    assert(SparkPeeling.columns(vs, lit(1) -> DoubleType).constant(0) == 1.0)
    assert(SparkPeeling.columns(vs, lit(null) -> DoubleType).constant(0).isNaN)
    assert(SparkPeeling.columns(vs, col("fraudFree") -> BooleanType).at.toSeq == Seq(2))
    val projected: Seq[(DataFrame, Column)] = Seq(
      vs -> col("prior") * 1.0, vs -> col("PRIOR"), vs -> col("prior").cast("double"), vs -> lit("0.5"),
      vs -> typedLit(1.0f), vs -> col("id"), vs.select(col("*"), struct(col("id")).as("s")) -> col("s.id"))
    for ((df, p) <- projected) {
      val r = SparkPeeling.columns(df, col("id") -> LongType, p -> DoubleType)
      assert((r.frame ne df) && r.at.toSeq == Seq(0, 1), p.toString)
    }
    // Two fields that differ only in case: the projection throws, as a
    // `select` of either would.
    val twoCases = vs.select(col("*"), col("prior").as("Prior"))
    intercept[AnalysisException](SparkPeeling.columns(twoCases, col("prior") -> DoubleType))
    // Int ids are cast by the projection.
    val ints = (0 to 2).map(id => (id, 1.0)).toDF("id", "prior")
    assert(SparkPeeling.columns(ints, col("id") -> LongType).frame ne ints)
    SparkPeeling.inPlace.withValue(false) {
      assert(SparkPeeling.columns(vs, col("id") -> LongType).frame ne vs)
    }
  }

  private def vertexView(v: SparkPeeling.Vertices) = (v.ids.toSeq, v.vw.toSeq, v.benign.toSeq)

  test("in-place and projected reads give the same Vertices and ParDetect results") {
    val (vs, es) = (readVertices, readEdges)
    val vIntIds = vs.withColumn("id", col("id").cast("int"))
    val eIntIds = es.withColumn("src", col("src").cast("int")).withColumn("dst", col("dst").cast("int"))
    val vsusps: Seq[Option[Column]] =
      Seq(Some(col("prior")), Some(lit(0.25)), None, Some(col("prior") * 1.0), Some(col("PRIOR")))
    val esusps: Seq[Option[Column]] = Seq(Some(col("amount")), Some(lit(2.0)), None, Some(col("Amount")))
    val benigns: Seq[Option[Column]] = Seq(Some(col("fraudFree")), Some(lit(false)), None)
    val cases = for (vsusp <- vsusps; benign <- benigns) yield (vsusp, benign)
    def dupin(k: Int, vsusp: Option[Column], esusp: Option[Column], benign: Option[Column]) = {
      val d = new Dupin(spark)
      vsusp.foreach(d.VSusp); esusp.foreach(d.ESusp); benign.foreach(d.isBenign)
      if (k > 0) d.setK(k) else d
    }
    for ((v, e, cs) <- Seq((vs, es, cases), (vIntIds, eIntIds, cases.take(3))); (vsusp, benign) <- cs) {
      val vsAt = bothReads(vertexView(SparkPeeling.Vertices(SparkPeeling.Vertices.read(
        v, vsusp.getOrElse(lit(0.0)), benign.getOrElse(lit(false))))))
      assert(vsAt.distinct.size == 1, s"$vsusp $benign")
      for ((k, esusp) <- esusps.map(0 -> _) :+ (3 -> None)) {
        val runs = bothReads {
          val d = dupin(k, vsusp, esusp, benign).LoadGraph(v, e)
          d.ParDetect()
          view(d.lastResult)
        }
        assert(runs(0) == runs(1), s"k=$k vsusp=$vsusp esusp=$esusp benign=$benign")
      }
    }
    // The case-mismatched and Int-id reads match the plain Long reads.
    val plain = bothReads { val d = dupin(0, Some(col("prior")), Some(col("amount")), None).LoadGraph(vs, es)
      d.ParDetect(); view(d.lastResult) }.head
    val other = bothReads { val d = dupin(0, Some(col("PRIOR")), Some(col("AMOUNT")), None)
      .LoadGraph(vIntIds, eIntIds); d.ParDetect(); view(d.lastResult) }
    assert(other.forall(_ == plain))
  }

  test("a frame that is not a local relation reads in place, with its one job") {
    val (vs, es) = (readVertices, readEdges)
    val (vr, er) = (vs.repartition(3), es.repartition(3))
    assert(SparkPeeling.columns(vr, col("id") -> LongType, col("prior") -> DoubleType).frame eq vr)
    for (k <- Seq(0, 3)) {
      def run(v: DataFrame, e: DataFrame) = {
        val d = new Dupin(spark).VSusp(col("prior")).ESusp(col("amount")).isBenign(col("fraudFree"))
        (if (k > 0) d.setK(k) else d).LoadGraph(v, e).ParDetect()
        view(d.lastResult)
      }
      val local = run(vs, es)
      assert(bothReads(run(vr, er)).forall(_ == local), s"k=$k")
      // A second detection on the same frames reads their plans again.
      assert(run(vr, er) == local, s"k=$k")
    }
  }

  test("rejections and missing columns are the same on both reads") {
    bothReads {
      for (d <- Seq(() => new Dupin(spark), () => new Dupin(spark).setK(3))) {
        val nullId = Seq(Some(0L), None, Some(1L)).map(id => (id, 0.0)).toDF("id", "prior")
        val err = intercept[IllegalArgumentException](
          d().LoadGraph(nullId, Seq((0L, 1L)).toDF("src", "dst")).ParDetect())
        assert(err.getMessage.contains("null id"), err.getMessage)
        rejectsDuplicateIds(d())
        for ((vsusp, shown) <- Seq(lit(-5.0) -> "-5.0", col("prior") - 1.0 -> "-1.0", lit(Double.NaN) -> "NaN",
                                   lit(null) -> "NaN")) {
          val msg = violation(d().VSusp(vsusp))
          assert(msg.contains(s"vertex 0 has suspiciousness $shown"), msg)
        }
        val nullPrior = Seq((0L, None), (1L, Some(1.0))).toDF("id", "p")
        val msg = intercept[IllegalArgumentException](
          d().VSusp(col("p")).LoadGraph(nullPrior, Seq((0L, 1L)).toDF("src", "dst")).ParDetect()).getMessage
        assert(msg.contains("vertex 0 has suspiciousness NaN"), msg)
        for (missing <- Seq(d().VSusp(col("nope")), d().isBenign(col("nope"))))
          intercept[AnalysisException](missing.LoadGraph(exampleVertices, exampleEdges).ParDetect())
        intercept[AnalysisException](
          d().LoadGraph(exampleVertices, exampleEdges.toDF("a", "b", "amount")).ParDetect())
      }
      val msg = violation(new Dupin(spark).ESusp(lit(-1.0)))
      assert(msg.matches("edge \\(\\d+, \\d+\\) has suspiciousness -1\\.0;.*"), msg)
      intercept[AnalysisException](
        new Dupin(spark).ESusp(col("nope")).LoadGraph(exampleVertices, exampleEdges).ParDetect())
    }
  }
}
