package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.local.{DupinLocal, LocalGraph}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Dupin's parallel peeling engine on Spark.
  *
  * The per-vertex state lives on the driver: the sorted vertex ids, the
  * peeling weights `w_u`, the active flags, `f` and `|S|` — O(|V|), which
  * the driver holds anyway for the removal order and the best set. The
  * O(|E|) edge table (edge metrics) or the O(#cliques) clique table (clique
  * metrics, listed once by [[SparkCliques]]) starts on the cluster,
  * `localCheckpoint`ed. One pass over it gives the initial weights; each
  * peel is one more pass (one Spark job, no shuffle) that takes the peeled
  * vertices as a broadcast set, drops the rows they hit, and returns per
  * partition the weight those rows took from each surviving member. The
  * driver merges these in partition order.
  *
  * Once the surviving rows fit [[SparkPeeling.DriverBudget]], the table
  * moves to the driver, one block per partition, shipped with the deltas
  * of the pass that produced it. Every later peel runs the same `drop` on
  * those blocks in partition order and starts no job, so w, f and the
  * history are the same as with every peel on the cluster (the switch of
  * direction-optimising traversal, Beamer et al., SC'12, applied to a
  * peeling table). A clique metric applies the same switch to its input:
  * one job checks the raw edges and, when they fit the budget (2 members
  * a row), brings them back as state indices; the whole detection then
  * runs on the driver with the local engine's [[CliqueMetricState]] and
  * starts no listing job at all. Clique counts are integers, so the result
  * is bit-identical to the distributed one.
  *
  * With the weights on the driver, every selection (τ, τ_max, the long-tail
  * count, the arg-min guard, the LPO trims, the best snapshot) is the local
  * engine's own loop, [[repro.local.DupinLocal.runOn]], so both engines
  * share one peeling policy and are cross-checked against each other in
  * tests.
  */
object SparkPeeling {

  /** The shared loop's settings (ε, GPO, LPO, `maxRounds`, ...). */
  type Config = DupinLocal.Config
  val Config: DupinLocal.Config.type = DupinLocal.Config

  /** Table members (rows × arity, as state indices) up to which the peel
    * finishes on the driver: 2M members, 8 MB of indices plus 8 bytes per
    * row for edge weights. A clique metric's kept input edges count 2
    * members a row and come back as the same `Int` indices (8 bytes an
    * edge); the local graph built from them keeps 24 bytes an edge, and at
    * 1M edges the build ran in a 128 MB heap but not in 96 MB.
    */
  val DriverBudget: Long = 1L << 21

  /** The budget a run uses; tests scope another with `withValue`. */
  private[core] val driverBudget = new scala.util.DynamicVariable[Long](DriverBudget)

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

  /** Vertex rows collected to the driver: `ids` ascending, so state index
    * `u` is vertex `ids(u)`, and `vw(u)` its vertex weight.
    */
  final class Vertices private (val ids: Array[Long], val vw: Array[Double])

  object Vertices {
    /** Rejects a duplicated id, naming the smallest, and (Property 3.1) a
      * negative or non-finite vertex weight, naming its vertex.
      */
    def apply(rows: Array[(Long, Double)]): Vertices = {
      val sorted = rows.sortBy(_._1)
      val ids = sorted.map(_._1)
      requireUnique(ids)
      sorted.foreach { case (id, vw) =>
        require(vw >= 0 && vw < Double.PositiveInfinity,
          s"vertex $id has suspiciousness $vw; Property 3.1 needs it finite and non-negative")
      }
      new Vertices(ids, sorted.map(_._2))
    }

    /** `df`'s `id` and `vw` columns, collected by one job. */
    def collect(df: DataFrame): Vertices =
      apply(df.select(col("id").cast("long"), col("vw").cast("double")).collect()
        .map(r => (r.getLong(0), if (r.isNullAt(1)) Double.NaN else r.getDouble(1))))
  }

  /** Throws if the ascending `ids` hold an id twice, naming the smallest. */
  def requireUnique(ids: Array[Long]): Unit = {
    var i = 1
    while (i < ids.length) {
      require(ids(i) != ids(i - 1), s"vertex id ${ids(i)} appears more than once in vertices")
      i += 1
    }
  }

  /** Run a built-in metric on a property graph. */
  def run(spark: SparkSession, g: SparkGraph, metric: Metric,
          cfg: Config = Config()): Result = {
    def vertices(vw: Column) = Vertices.collect(g.vertices.withColumn("vw", vw))
    metric match {
      case DG => runEdge(spark, vertices(lit(0.0)), g.edges.withColumn("w", lit(1.0)), cfg)
      case DW => runEdge(spark, vertices(lit(0.0)), g.edges, cfg)
      case FD => runEdge(spark, vertices(col("vw")), fraudarEdges(g.edges), cfg)
      case TDS => runClique(spark, vertices(lit(0.0)), g.edges, 3, cfg)
      case KCliDS(kk) => runClique(spark, vertices(lit(0.0)), g.edges, kk, cfg)
    }
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

  /** Edge-sum peeling (DG/DW/FD and the user-defined facade metrics):
    * `w_u = vw_u + Σ_{(u,v)∈E[S]} w_uv`, `f = Σ vw + Σ w`. Every endpoint
    * of `e0` (`src`, `dst`, `w`; canonical `src < dst`, one row per pair)
    * must be a vertex of `v`, and (Property 3.1) every `w` finite and
    * non-negative; both are checked in the initial pass.
    */
  def runEdge(spark: SparkSession, v: Vertices, e0: DataFrame, cfg: Config): Result =
    peel(v, 2, cfg, new ClusterState(spark.sparkContext, v.ids, v.vw, 2, weighted = true,
      e0.select(col("src").cast("long"), col("dst").cast("long"), col("w").cast("double")).rdd))

  /** Throws if an endpoint of `edges` (`src`, `dst`) is not one of the
    * ascending `ids`, naming the smallest such endpoint; one job, with
    * `ids` as a broadcast.
    */
  private[core] def requireEndpoints(edges: DataFrame, ids: Array[Long]): Unit = {
    val bc = edges.sparkSession.sparkContext.broadcast(ids)
    // An endpoint outside `vertices` would count in f but never in |S|.
    val dangling = try edges.select(col("src").cast("long"), col("dst").cast("long")).rdd
      .map { r =>
        def missing(id: Long) = if (java.util.Arrays.binarySearch(bc.value, id) < 0) id else Long.MaxValue
        math.min(missing(r.getLong(0)), missing(r.getLong(1)))
      }.fold(Long.MaxValue)(math.min)
      finally bc.destroy()
    if (dangling != Long.MaxValue) throw danglingEndpoint(dangling)
  }

  private def danglingEndpoint(id: Long) =
    new IllegalArgumentException(s"edge endpoint $id is not a row of vertices")

  /** `run` on the rows of `edges` whose endpoints are both among the
    * ascending `ids`; when no vertex is `benign` every row is kept and no
    * broadcast is made.
    */
  private[core] def keeping[T](edges: DataFrame, ids: Array[Long], benign: Array[Long])(run: DataFrame => T): T =
    if (benign.isEmpty) run(edges)
    else {
      val bc = edges.sparkSession.sparkContext.broadcast(ids)
      val isKept = udf((id: Long) => java.util.Arrays.binarySearch(bc.value, id) >= 0)
      try run(edges.where(isKept(col("src")) && isKept(col("dst")))) finally bc.destroy()
    }

  /** Clique-count peeling (TDS k=3, kCLiDS k=4): `w_u` = active k-cliques
    * through u, `f` = number of active k-cliques; `v`'s vertex weights are
    * not used. `edges` are raw `src`, `dst` rows: either orientation,
    * repeated pairs and self-loops allowed. Every endpoint must be a vertex
    * of `v` or one of the ascending `benign` ids (an error names the
    * smallest that is neither); edges with a benign endpoint are dropped.
    *
    * One job reads every edge: it checks the endpoints and, per partition,
    * returns the kept edges as state indices while they fit the
    * partition's share of the budget. If every partition's came back, the
    * detection runs on the driver: [[repro.local.LocalGraph.fromEdges]]
    * builds the graph and the local [[CliqueMetricState]] peels it.
    * Otherwise the cliques of the canonicalised edges are listed once on
    * the cluster, and each peel drops the cliques that hold a peeled vertex.
    */
  def runClique(spark: SparkSession, v: Vertices, edges: DataFrame, k: Int, cfg: Config,
                benign: Array[Long] = Array.emptyLongArray): Result = {
    // Ids that are already Long are read from `edges` itself: Spark keeps a
    // frame's plan, so detections on one frame plan it once.
    val raw =
      if (Seq("src", "dst").forall(c => edges.schema(c).dataType == LongType)) edges
      else edges.withColumn("src", col("src").cast("long")).withColumn("dst", col("dst").cast("long"))
    val pairs = keptPairs(raw, v.ids, benign)
    if (pairs != null) {
      val es = new collection.IndexedSeq[(Int, Int, Double)] {
        def length: Int = pairs.length / 2
        def apply(i: Int): (Int, Int, Double) = (pairs(2 * i), pairs(2 * i + 1), 1.0)
      }
      val g = LocalGraph.fromEdges(v.ids.length, es, threads = cfg.threads)
      peel(v, k, cfg, new CliqueMetricState(g, k, cfg.threads))
    } else {
      val canonical = raw.where(col("src") =!= col("dst"))
        .select(least(col("src"), col("dst")).as("src"), greatest(col("src"), col("dst")).as("dst"))
      keeping(canonical, v.ids, benign) { e =>
        peel(v, k, cfg, new ClusterState(spark.sparkContext, v.ids, new Array[Double](v.ids.length), k,
          weighted = false, SparkCliques.cliques(e, k).rdd))
      }
    }
  }

  /** One job over the Long `src`, `dst` of `raw`: throws if an endpoint is
    * neither in the ascending `ids` nor in `benign`, naming the smallest.
    * Returns the other rows as state index pairs (`a0, b0, a1, b1, ...`,
    * self-loops and rows with a benign endpoint dropped) when every
    * partition's pairs fit its share of the budget, as in
    * [[ClusterState]]'s passes, so at most the budget's members come back;
    * null otherwise.
    */
  private def keptPairs(raw: DataFrame, ids: Array[Long], benign: Array[Long]): Array[Int] = {
    val rows = raw.rdd
    val (src, dst) = (raw.schema.fieldIndex("src"), raw.schema.fieldIndex("dst"))
    val share = driverBudget.value / math.max(1, rows.getNumPartitions)
    val bc = raw.sparkSession.sparkContext.broadcast((ids, benign))
    val out = try rows.mapPartitions { it =>
        val (is, bs) = bc.value
        var missing = Long.MaxValue
        def index(id: Long): Int = {
          val i = java.util.Arrays.binarySearch(is, id)
          if (i < 0 && java.util.Arrays.binarySearch(bs, id) < 0) missing = math.min(missing, id)
          i
        }
        var pairs = new mutable.ArrayBuilder.ofInt
        var members = 0L
        it.foreach { r =>
          val (a, b) = (index(r.getLong(src)), index(r.getLong(dst)))
          if (pairs != null && a >= 0 && b >= 0 && a != b) {
            members += 2
            if (members > share) pairs = null else { pairs += a; pairs += b }
          }
        }
        Iterator.single((missing, if (pairs == null) null else pairs.result()))
      }.collect()
      finally bc.destroy()
    val missing = out.foldLeft(Long.MaxValue)((m, p) => math.min(m, p._1))
    if (missing != Long.MaxValue) throw danglingEndpoint(missing)
    if (out.exists(_._2 == null)) null else Array.concat(out.map(_._2): _*)
  }

  private def peel(v: Vertices, k: Int, cfg: Config, state: PeelState): Result = {
    val r = try DupinLocal.runOn(state, k, cfg) finally state.release()
    Result(r.bestSet.map(v.ids(_)), r.bestDensity, r.rounds, r.longTailPeels, r.sparseTrims,
      r.history, r.truncated)
  }

  /** One block of the table, a partition's rows: row `r` holds the state
    * indices `mem(r * arity until (r + 1) * arity)` (an edge's endpoints or
    * a clique's members) and weighs `wt(r)`, or 1 when `wt` is null.
    */
  private final class Rows(val arity: Int, val mem: Array[Int], val wt: Array[Double])
      extends Serializable {
    def count: Int = mem.length / arity
    def weight(r: Int): Double = if (wt == null) 1.0 else wt(r)
  }

  /** What one partition's pass reports: the rows it counted took `sum(i)`
    * from vertex `idx(i)` (ascending) and `total` in all; `kept` rows stay
    * in the table; `error` describes the partition's first bad input row.
    */
  private final class Delta(val idx: Array[Int], val sum: Array[Double], val total: Double,
                            val kept: Int, val error: String) extends Serializable

  /** A per-vertex accumulator over `n` vertices; `result` hands out one
    * block's sums and clears them, so one accumulator serves many blocks.
    */
  private final class Sums(n: Int) {
    private val acc = new Array[Double](n)
    private val seen = new Array[Boolean](n)
    private val idx = new mutable.ArrayBuilder.ofInt
    var total = 0.0

    def add(u: Int, a: Double): Unit = {
      if (!seen(u)) { seen(u) = true; idx += u }
      acc(u) += a
    }

    def result(kept: Int, error: String = null): Delta = {
      val ix = idx.result()
      java.util.Arrays.sort(ix)
      val d = new Delta(ix, ix.map(acc), total, kept, error)
      ix.foreach { u => acc(u) = 0.0; seen(u) = false }
      idx.clear()
      total = 0.0
      d
    }
  }

  /** The initial pass over one partition of input rows (`arity` id columns,
    * then the weight if `weighted`): maps ids to state indices and counts
    * every row.
    */
  private def load(ids: Array[Long], arity: Int, weighted: Boolean)(it: Iterator[Row]): (Rows, Delta) = {
    val sums = new Sums(ids.length)
    val mem = new mutable.ArrayBuilder.ofInt
    val wt = new mutable.ArrayBuilder.ofDouble
    val row = new Array[Int](arity)
    var error: String = null
    var count = 0
    while (error == null && it.hasNext) {
      val r = it.next()
      var j = 0
      while (error == null && j < arity) {
        row(j) = java.util.Arrays.binarySearch(ids, r.getLong(j))
        if (row(j) < 0) error = s"edge endpoint ${r.getLong(j)} is not a row of vertices"
        j += 1
      }
      val w = if (!weighted) 1.0 else if (r.isNullAt(arity)) Double.NaN else r.getDouble(arity)
      if (error == null && !(w >= 0 && w < Double.PositiveInfinity))
        error = s"edge (${r.getLong(0)}, ${r.getLong(1)}) has suspiciousness $w; " +
          "Property 3.1 needs it finite and non-negative"
      if (error == null) {
        row.foreach { u => mem += u; sums.add(u, w) }
        if (weighted) wt += w
        sums.total += w
        count += 1
      }
    }
    (new Rows(arity, mem.result(), if (weighted) wt.result() else null), sums.result(count, error))
  }

  /** A removal pass over one block: drops every row that holds a
    * peeled vertex and sums its weight onto its surviving members.
    */
  private def drop(sums: Sums, peeled: java.util.BitSet)(rows: Rows): (Rows, Delta) = {
    val a = rows.arity
    val mem = new mutable.ArrayBuilder.ofInt
    val wt = new mutable.ArrayBuilder.ofDouble
    var kept = 0
    var r = 0
    while (r < rows.count) {
      var hit = false
      var j = r * a
      while (!hit && j < (r + 1) * a) { hit = peeled.get(rows.mem(j)); j += 1 }
      if (hit) {
        val w = rows.weight(r)
        sums.total += w
        j = r * a
        while (j < (r + 1) * a) { if (!peeled.get(rows.mem(j))) sums.add(rows.mem(j), w); j += 1 }
      } else {
        j = r * a
        while (j < (r + 1) * a) { mem += rows.mem(j); j += 1 }
        if (rows.wt != null) wt += rows.wt(r)
        kept += 1
      }
      r += 1
    }
    val rest =
      if (kept == rows.count) rows
      else new Rows(a, mem.result(), if (rows.wt != null) wt.result() else null)
    (rest, sums.result(kept))
  }

  /** Dupin's peeling state with the vertices on the driver and the rows
    * (edges or cliques) of `input` on the cluster, or on the driver once
    * they fit the budget.
    */
  private final class ClusterState(sc: SparkContext, ids: Array[Long], vw: Array[Double],
                                   arity: Int, weighted: Boolean, input: => RDD[Row])
      extends PeelState {
    val n: Int = ids.length
    private val act = Array.fill(n)(true)
    private var cnt = n
    private val wArr = vw.clone()
    private var fVal = vw.sum
    private val budget = driverBudget.value
    /** The checkpointed table, and the broadcast of the pass that produced
      * it (its closure holds it until the table is dropped).
      */
    private var table: RDD[(Rows, Delta)] = _
    private var tableArg: Broadcast[_] = _
    /** The table on the driver, one block per partition, once it fits. */
    private var blocks: Array[Rows] = _
    private var rowsLeft = 0L

    // With no vertex there is nothing to peel (and no row can be valid).
    if (n > 0) {
      val (a, wtd) = (arity, weighted)
      val deltas = pass(input, ids)((is, it) => load(is, a, wtd)(it))
      deltas.find(_.error != null).foreach { d => release(); throw new IllegalArgumentException(d.error) }
      merge(deltas, 1.0)
    }

    def activeCount: Int = cnt
    def isActive(u: Int): Boolean = act(u)
    def f: Double = fVal
    def w(u: Int): Double = wArr(u)

    def removeBatch(us: Array[Int], threads: Int): Unit = {
      us.foreach { u =>
        require(act(u), s"removeBatch($u): not active")
        act(u) = false; wArr(u) = 0.0; fVal -= vw(u)
      }
      cnt -= us.length
      if (cnt == 0) { fVal = 0.0; release() }
      else if (rowsLeft > 0) {
        val peeled = new java.util.BitSet(n)
        us.foreach(peeled.set)
        if (blocks == null && rowsLeft * arity <= budget) {
          blocks = table.map(_._1).collect()
          unpersist()
        }
        if (blocks != null) {
          val sums = new Sums(n)
          val out = blocks.map(drop(sums, peeled))
          blocks = out.map(_._1)
          val deltas = out.map(_._2)
          rowsLeft = deltas.map(_.kept.toLong).sum
          merge(deltas, -1.0)
        } else {
          val nn = n
          merge(pass(table, peeled)((p, it) => drop(new Sums(nn), p)(it.next()._1)), -1.0)
        }
      }
    }

    /** Add (`sign` 1) or subtract (-1) the deltas, in partition order. */
    private def merge(deltas: Array[Delta], sign: Double): Unit = deltas.foreach { d =>
      var i = 0
      while (i < d.idx.length) { wArr(d.idx(i)) += sign * d.sum(i); i += 1 }
      fVal += sign * d.total
    }

    /** One job: `step` runs on every partition of `src` with `arg` as a
      * broadcast; the rows it keeps are checkpointed as the new table and
      * its deltas come back in partition order. A partition's kept rows
      * come back with its delta when they fit its share of the budget; if
      * the whole table fits and every block came back, it moves to the
      * driver and the cluster copy is dropped. (If a skewed block stayed
      * behind, the next peel collects the blocks instead of running a pass.)
      */
    private def pass[A: ClassTag, T](src: RDD[T], arg: A)(
        step: (A, Iterator[T]) => (Rows, Delta)): Array[Delta] = {
      val bc = sc.broadcast(arg)
      val next = src.mapPartitions(it => Iterator.single(step(bc.value, it)))
      next.localCheckpoint()
      val share = budget / math.max(1, src.getNumPartitions)
      val out = next.map { case (rows, d) => (if (rows.mem.length <= share) rows else null, d) }.collect()
      unpersist()
      table = next
      tableArg = bc
      val deltas = out.map(_._2)
      rowsLeft = deltas.map(_.kept.toLong).sum
      if (rowsLeft * arity <= budget && out.forall(_._1 != null)) {
        blocks = out.map(_._1)
        unpersist()
      }
      deltas
    }

    /** Drop the table, wherever it is. */
    override def release(): Unit = { unpersist(); blocks = null; rowsLeft = 0 }

    /** Drop the cluster-side table. */
    private def unpersist(): Unit = if (table != null) {
      table.unpersist(blocking = false)
      tableArg.destroy()
      table = null
    }
  }
}
