package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The user-facing Dupin API (paper §3, Listing 1), DataFrame-flavoured:
  * suspiciousness functions are Column expressions over the loaded
  * vertex/edge attributes rather than C++ callbacks.
  *
  * {{{
  * val dupin = new Dupin(spark)
  * dupin.VSusp(col("vw"))                              // a_i: side info
  *      .ESusp(lit(1.0) / log(col("dstDeg") + 5.0))    // c_ij: Fraudar
  *      .setEpsilon(0.1)
  *      .LoadGraph(vertices, edges)
  * val fraudsters: Array[Long] = dupin.ParDetect()
  * }}}
  *
  * - `VSusp` / `ESusp` define the metric (Property 3.1: both must be
  *   finite and non-negative, so `g = f/|S|` is monotone; `ParDetect`
  *   rejects a value that is not).
  * - `isBenign` marks vertices that are peeled in the first iteration.
  * - `setEpsilon` trades precision for throughput (τ = k(1+ε)g).
  * - `setK(k≥3)` switches to clique-count peeling (TDS at k=3, kCLiDS
  *   above) — `ESusp` is then ignored, matching Listing 4 where esusp≡0.
  */
final class Dupin(spark: SparkSession) {
  private var vsusp: Column = lit(0.0)
  private var esusp: Column = lit(1.0)
  private var benign: Option[Column] = None
  private var eps: Double = 0.1
  private var cliqueK: Int = 0 // 0 = edge-sum metric (k=2)
  private var gpo: Boolean = true
  private var lpo: Boolean = true
  private var loaded: Option[(DataFrame, DataFrame)] = None
  private var last: Option[SparkPeeling.Result] = None

  def VSusp(c: Column): this.type = { vsusp = c; this }
  def ESusp(c: Column): this.type = { esusp = c; this }
  def isBenign(c: Column): this.type = { benign = Some(c); this }
  def setEpsilon(e: Double): this.type = { require(e >= 0); eps = e; this }
  def setK(k: Int): this.type = { require(k >= 3 && k <= 4); cliqueK = k; this }
  /** Toggle the long-tail pruning optimizations (both on by default). */
  def setPruning(globalOpt: Boolean, localOpt: Boolean): this.type = {
    gpo = globalOpt; lpo = localOpt; this
  }

  /** Load a graph: `vertices` needs an `id` column (other columns feed
    * VSusp/isBenign) and each `id` once; `edges` needs `src`, `dst` (others
    * feed ESusp), and every endpoint must be an `id` of `vertices` (benign
    * ones included) — `ParDetect` rejects a duplicated id and a dangling
    * edge.
    */
  def LoadGraph(vertices: DataFrame, edges: DataFrame): this.type = {
    loaded = Some((vertices, edges)); this
  }

  /** Run parallel detection; returns the vertex ids of S^p.
    *
    * The vertex rows are collected to the driver (one job), which rejects
    * a duplicated id and (Property 3.1) a negative or non-finite `VSusp` of
    * a non-benign vertex. An edge metric then checks the edges against the
    * collected ids in one more job (a broadcast set) before
    * [[SparkPeeling.runEdge]] peels; a negative or non-finite `ESusp`
    * (after duplicate edges are summed) is rejected by its first pass. A
    * clique metric hands the raw edges and the benign ids to
    * [[SparkPeeling.runClique]], whose one job over the edges makes the
    * same endpoint check and brings them to the driver when they fit its
    * budget.
    */
  def ParDetect(): Array[Long] = {
    val (vRaw, eRaw) = loaded.getOrElse(throw new IllegalStateException("LoadGraph first"))
    val rows = vRaw.select(col("id").cast("long"), vsusp.cast("double"),
        benign.getOrElse(lit(false)))
      .collect().map { r =>
        (r.getLong(0), if (r.isNullAt(1)) Double.NaN else r.getDouble(1), !r.isNullAt(2) && r.getBoolean(2))
      }
    val all = rows.map(_._1).sorted
    SparkPeeling.requireUnique(all)
    val v = SparkPeeling.Vertices(rows.collect { case (id, vw, false) => (id, vw) })
    val benignIds = rows.collect { case (id, _, true) => id }.sorted
    val cfg = SparkPeeling.Config(eps = eps, gpo = gpo, lpo = lpo)
    val res =
      if (cliqueK >= 3) SparkPeeling.runClique(spark, v, eRaw, cliqueK, cfg, benignIds)
      else {
        SparkPeeling.requireEndpoints(eRaw, all)
        val e0 = eRaw.withColumn("w", esusp.cast("double"))
          .select(col("src").cast("long"), col("dst").cast("long"), col("w"))
          .where(col("src") =!= col("dst"))
          .select(least(col("src"), col("dst")).as("src"),
                  greatest(col("dst"), col("src")).as("dst"), col("w"))
          .groupBy("src", "dst").agg(sum("w").as("w"))
        // Benign vertices are peeled "within the current iteration" — i.e.
        // removed before round 1 together with their incident edges.
        SparkPeeling.keeping(e0, v.ids, benignIds)(SparkPeeling.runEdge(spark, v, _, cfg))
      }
    last = Some(res)
    res.bestSet
  }

  /** Full result (density, rounds, pruning stats) of the last ParDetect. */
  def lastResult: SparkPeeling.Result =
    last.getOrElse(throw new IllegalStateException("ParDetect first"))
}
