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
    * a non-benign vertex. Both metric families hand the edges and the
    * benign ids to the engine, whose first pass over the edges checks
    * every endpoint (naming the smallest that is neither a vertex nor
    * benign) and drops self-loops and edges with a benign endpoint. An
    * edge metric first orients each edge and sums the `ESusp` of its
    * repeats, and [[SparkPeeling.runEdge]]'s first pass rejects a negative
    * or non-finite sum; a clique metric hands the raw edges to
    * [[SparkPeeling.runClique]].
    */
  def ParDetect(): Array[Long] = {
    val (vRaw, eRaw) = loaded.getOrElse(throw new IllegalStateException("LoadGraph first"))
    val rows = SparkPeeling.Vertices.read(vRaw, vsusp, benign.getOrElse(lit(false)))
    SparkPeeling.requireUnique(rows.map(_._1).sorted)
    val v = SparkPeeling.Vertices(rows.collect { case (id, vw, false) => (id, vw) })
    // Benign vertices are peeled "within the current iteration", i.e.
    // removed before round 1 together with their incident edges.
    val benignIds = rows.collect { case (id, _, true) => id }.sorted
    val cfg = SparkPeeling.Config(eps = eps, gpo = gpo, lpo = lpo)
    val res =
      if (cliqueK >= 3) SparkPeeling.runClique(spark, v, eRaw, cliqueK, cfg, benignIds)
      else SparkPeeling.runEdge(spark, v, SparkGraph.canonical(eRaw, esusp), cfg, benignIds)
    last = Some(res)
    res.bestSet
  }

  /** Full result (density, rounds, pruning stats) of the last ParDetect. */
  def lastResult: SparkPeeling.Result =
    last.getOrElse(throw new IllegalStateException("ParDetect first"))
}
