package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Dupin's parallel peeling engine as iterative DataFrame jobs.
  *
  * One outer iteration = Algorithm 2's round, expressed in dataflow:
  *   1. peeling weights `w_u(S_{i-1})` over the active vertices — edge
  *      metrics sum incident weights over the cached active-edge frame;
  *      clique metrics count rows of the active k-clique table, which is
  *      listed once by [[SparkCliques]] at the start of the run;
  *   2. `f`, `g`, and the threshold `τ` — global aggregates + driver math;
  *   3. the peel — filter `w ≤ τ`, anti-join the peeled ids (a broadcast
  *      side) out of the active vertex frame and the metric's edge or
  *      clique frame, `localCheckpoint` to cut lineage.
  * GPO (Alg. 3) threads `τ_max` through the driver loop; LPO (Alg. 4) runs
  * the trim loop (`w < max(τ_max, g)`) between rounds. The trim pass that
  * removes nothing has observed the next round's S, so that round reuses it.
  *
  * The removal order is logged on the driver (peeled sets are collected
  * anyway to build the anti-join side), so the best snapshot S^p is
  * reconstructed exactly as in the local engine, which this implementation
  * is cross-checked against in tests.
  */
object SparkPeeling {

  final case class Config(
      eps: Double = 0.1,
      gpo: Boolean = false,
      lpo: Boolean = false,
      maxRounds: Int = 100000)

  /** @param truncated the run stopped at `maxRounds` with vertices still
    *                  active, so `bestSet` is the best of a partial peel
    */
  final case class Result(
      bestSet: Array[Long],
      bestDensity: Double,
      rounds: Int,
      longTailPeels: Long,
      sparseTrims: Long,
      history: Vector[Double],
      truncated: Boolean)

  /** Run a built-in metric on a property graph. */
  def run(spark: SparkSession, g: SparkGraph, metric: Metric,
          cfg: Config = Config()): Result = metric match {
    case DG =>
      runEdge(spark, g.vertices.withColumn("vw", lit(0.0)),
        g.edges.withColumn("w", lit(1.0)), 2, cfg)
    case DW =>
      runEdge(spark, g.vertices.withColumn("vw", lit(0.0)), g.edges, 2, cfg)
    case FD =>
      runEdge(spark, g.vertices, fraudarEdges(g.edges), 2, cfg)
    case TDS          => runClique(spark, g.vertices, g.edges, 3, cfg)
    case KCliDS(kk)   => runClique(spark, g.vertices, g.edges, kk, cfg)
  }

  /** Fraudar edge weights: `1/log(max(deg_src, deg_dst) + c)` with degrees
    * taken on the full graph (FD fixes them before peeling starts).
    */
  def fraudarEdges(edges: DataFrame): DataFrame = {
    val deg = edges.select(col("src").as("id")).union(edges.select(col("dst").as("id")))
      .groupBy("id").agg(count(lit(1)).as("deg"))
    edges
      .join(deg.select(col("id").as("src"), col("deg").as("ds")), "src")
      .join(deg.select(col("id").as("dst"), col("deg").as("dd")), "dst")
      .select(col("src"), col("dst"),
        (lit(1.0) / log(greatest(col("ds"), col("dd")) + lit(Metric.FraudarC))).as("w"))
  }

  /** What a metric keeps between rounds besides the active vertex frame. */
  private trait Body {
    /** `(id, w)` for every row of the active vertex frame `v`. */
    def weights(v: DataFrame): DataFrame
    /** `f(S)` for the active vertex frame `v`. */
    def f(v: DataFrame): Double
    /** Drop every row incident to a peeled id (`peeled` has one column). */
    def remove(peeled: DataFrame): Unit
  }

  /** `df` checkpointed and counted by one job (an eager checkpoint and
    * `Dataset.count` would take three).
    */
  private def checkpointCount(df: DataFrame): (DataFrame, Long) = {
    val cut = df.localCheckpoint(eager = false)
    (cut, cut.rdd.count())
  }

  /** `df` without the rows whose `column` is a peeled id. The peeled ids
    * are a broadcast side: the sessions turn auto-broadcast off.
    */
  private def without(df: DataFrame, column: String, peeled: DataFrame): DataFrame =
    df.join(broadcast(peeled.toDF(column)), Seq(column), "left_anti")

  /** Edge-sum peeling (DG/DW/FD and the user-defined facade metrics):
    * `w_u = vw_u + Σ_{(u,v)∈E[S]} w_uv`, `f = Σ vw + Σ w`.
    */
  def runEdge(spark: SparkSession, v0: DataFrame, e0: DataFrame, k: Int,
              cfg: Config): Result =
    loop(spark, v0, k, cfg, new Body {
      private var e = e0.select(col("src").cast("long"), col("dst").cast("long"),
        col("w").cast("double")).localCheckpoint(true)

      def weights(v: DataFrame): DataFrame = {
        val ew = e.select(col("src").as("id"), col("w"))
          .union(e.select(col("dst").as("id"), col("w")))
          .groupBy("id").agg(sum("w").as("ws"))
        v.join(ew, Seq("id"), "left")
          .select(col("id"), (col("vw") + coalesce(col("ws"), lit(0.0))).as("w"))
      }

      def f(v: DataFrame): Double = {
        val fv = v.agg(coalesce(sum("vw"), lit(0.0))).head.getDouble(0)
        val fe = e.agg(coalesce(sum("w"), lit(0.0))).head.getDouble(0)
        fv + fe
      }

      def remove(peeled: DataFrame): Unit =
        e = without(without(e, "src", peeled), "dst", peeled).localCheckpoint(true)
    })

  /** Clique-count peeling (TDS k=3, kCLiDS k=4): `w_u` = active k-cliques
    * through u, `f` = number of active k-cliques. The cliques of `e0`
    * (canonical `src < dst`, endpoints all rows of `v0`) are listed once;
    * each peel drops the cliques that contain a peeled id, so no round
    * re-runs the self-join.
    */
  def runClique(spark: SparkSession, v0: DataFrame, e0: DataFrame, k: Int,
                cfg: Config): Result = {
    val cols = SparkCliques.columns(k)
    loop(spark, v0, k, cfg, new Body {
      private var (cliques, count) = checkpointCount(SparkCliques.cliques(
        e0.select(col("src").cast("long"), col("dst").cast("long")), k))

      // One row per (clique, member) and a zero row per active vertex, so
      // vertices in no clique get w = 0 without a join.
      def weights(v: DataFrame): DataFrame =
        cols.map(c => cliques.select(col(c).as("id"), lit(1L).as("one")))
          .foldLeft(v.select(col("id"), lit(0L).as("one")))(_ union _)
          .groupBy("id").agg(sum("one").cast("double").as("w"))

      def f(v: DataFrame): Double = count.toDouble

      def remove(peeled: DataFrame): Unit = {
        val (rest, n) = checkpointCount(cols.foldLeft(cliques)(without(_, _, peeled)))
        cliques = rest
        count = n
      }
    })
  }

  private def loop(spark: SparkSession, v0: DataFrame, k: Int, cfg: Config,
                   body: Body): Result = {
    import spark.implicits._
    var (v, cnt) = checkpointCount(v0.select(col("id").cast("long"), col("vw").cast("double")))
    val order = new mutable.ArrayBuffer[Long]()
    val hist = Vector.newBuilder[Double]
    var bestDensity = Double.NegativeInfinity
    var bestCount = 0
    var tauMax = 0.0
    var rounds = 0
    var longTail = 0L
    var sparse = 0L

    def observe(): (DataFrame, Double) = {
      val wDf = body.weights(v).localCheckpoint(true)
      val g = body.f(v) / cnt
      hist += g
      if (g > bestDensity) { bestDensity = g; bestCount = order.size }
      (wDf, g)
    }

    def applyRemovals(ids: Array[Long]): Unit = {
      order ++= ids
      val peeled = ids.toSeq.toDF("id")
      v = without(v, "id", peeled).localCheckpoint(true)
      body.remove(peeled)
      cnt -= ids.length
      if (cnt == 0) hist += 0.0 // the empty snapshot, as the local engine logs it
    }

    // An LPO pass that trims nothing has observed the S the next round starts on.
    var carried: Option[(DataFrame, Double)] = None
    while (cnt > 0 && rounds < cfg.maxRounds) {
      rounds += 1
      val (wDf, g) = carried.getOrElse(observe())
      carried = None
      if (cfg.gpo || cfg.lpo) tauMax = math.max(tauMax, g / (k * (1 + cfg.eps)))
      val base = k * (1 + cfg.eps) * g
      val tau = if (cfg.gpo || cfg.lpo) math.max(tauMax, base) else base
      var peeled = wDf.filter(col("w") <= tau).select("id", "w").collect()
      if (peeled.isEmpty) // FP-round-off guard: peel the arg-min
        peeled = wDf.orderBy(col("w")).limit(1).select("id", "w").collect()
      longTail += peeled.count(_.getDouble(1) > base)
      applyRemovals(peeled.map(_.getLong(0)))

      while (cfg.lpo && carried.isEmpty && cnt > 0) {
        val obs @ (wDf2, g2) = observe()
        tauMax = math.max(tauMax, g2 / (k * (1 + cfg.eps)))
        val tau2 = math.max(tauMax, g2)
        val trims = wDf2.filter(col("w") < tau2).select("id").collect().map(_.getLong(0))
        if (trims.isEmpty) carried = Some(obs)
        else { applyRemovals(trims); sparse += trims.length }
      }
    }
    val remaining = if (cnt > 0) v.select("id").collect().map(_.getLong(0)) else Array.empty[Long]
    val best = (order.view.drop(bestCount) ++ remaining).toArray.sorted
    Result(best, bestDensity, rounds, longTail, sparse, hist.result(), truncated = cnt > 0)
  }
}
