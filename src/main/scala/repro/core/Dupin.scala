package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.local.{DupinLocal, PeelResult}

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
  * - `setEpsilon` trades precision for throughput (τ = k(1+ε)g); the
  *   long-tail pruning (GPO and LPO, §5) is always on.
  * - `setK(k≥3)` switches to clique-count peeling (TDS at k=3, kCLiDS
  *   above) — `ESusp` is then ignored, matching Listing 4 where esusp≡0.
  */
final class Dupin private[core] (spark: SparkSession, private var cfg: DupinLocal.Config) {
  def this(spark: SparkSession) = this(spark, DupinLocal.Config(gpo = true, lpo = true))

  private var vsusp: Column = lit(0.0)
  private var esusp: Column = lit(1.0)
  private var benign: Column = lit(false)
  private var cliqueK: Int = 0 // 0 = edge-sum metric (k=2)
  private var loaded: Option[(DataFrame, DataFrame)] = None
  private var last: Option[PeelResult] = None

  def VSusp(c: Column): this.type = { vsusp = c; this }
  def ESusp(c: Column): this.type = { esusp = c; this }
  def isBenign(c: Column): this.type = { benign = c; this }
  def setEpsilon(e: Double): this.type = { require(e >= 0); cfg = cfg.copy(eps = e); this }
  def setK(k: Int): this.type = { require(k >= 3 && k <= 4); cliqueK = k; this }

  /** Load a graph: `vertices` needs an `id` column (other columns feed
    * VSusp/isBenign) and each `id` once; `edges` needs `src`, `dst` (others
    * feed ESusp), and every endpoint must be an `id` of `vertices` (benign
    * ones included) — `ParDetect` rejects a duplicated id and a dangling
    * edge. An edge may come in either orientation and more than once: its
    * rows add up, each with its own `ESusp`; a self-loop is dropped.
    */
  def LoadGraph(vertices: DataFrame, edges: DataFrame): this.type = {
    loaded = Some((vertices, edges)); this
  }

  /** Run parallel detection; returns the vertex ids of S^p.
    *
    * Every column is read through [[SparkPeeling.columns]]: where it is a
    * literal or a plain field of the frame, of the wanted type, the rows
    * come from the frame's own physical plan, which Spark keeps, so no
    * query is analysed or planned per detection; any other column is read
    * from a projection of the frame. The vertex rows come to the driver (a
    * local relation is read with no job, any other plan runs its own),
    * which rejects a null or duplicated id and (Property 3.1) a negative or
    * non-finite `VSusp` of a non-benign vertex. Both metric families hand
    * the raw edge rows and the benign ids to the engine, whose first pass
    * over the edges checks every endpoint (naming the smallest that is
    * neither a vertex nor benign) and drops self-loops and edges with a
    * benign endpoint. An edge metric's pass ([[SparkPeeling.runEdge]]) also
    * rejects (Property 3.1) a row whose `ESusp` is negative or non-finite;
    * a clique metric ([[SparkPeeling.runClique]]) does not read `ESusp`.
    * That pass runs on the driver when the edge rows are there already (the
    * edge frame, or the projection read, is a local relation, as `toDF` of
    * a local collection makes) and fit [[SparkPeeling.DriverBudget]], so
    * a detection on two such frames, edge metric or `setK`, starts no Spark
    * job. Any other edge plan, or more rows, takes one job for that pass.
    * The engine's best set holds state indices; this is the one place they
    * become vertex ids.
    */
  def ParDetect(): Array[Long] = {
    val (vRaw, eRaw) = loaded.getOrElse(throw new IllegalStateException("LoadGraph first"))
    // Benign vertices are peeled "within the current iteration", i.e.
    // removed before round 1 together with their incident edges.
    val v = SparkPeeling.Vertices(SparkPeeling.Vertices.read(vRaw, vsusp, benign))
    val res =
      if (cliqueK >= 3) SparkPeeling.runClique(spark, v, eRaw, cliqueK, cfg)
      else SparkPeeling.runEdge(spark, v, eRaw, esusp, cfg)
    last = Some(res)
    res.bestSet.map(v.ids(_))
  }

  /** Full result (density, rounds, pruning stats, removal order) of the
    * last ParDetect. `bestSet` and `order` hold state indices: index `u` is
    * the `u`-th smallest non-benign vertex id.
    */
  def lastResult: PeelResult =
    last.getOrElse(throw new IllegalStateException("ParDetect first"))
}
