package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.dupin.ColumnNodes
import org.apache.spark.sql.types.{BooleanType, DataType, DoubleType, LongType}
import repro.local.{DupinLocal, LocalGraph, PeelResult}
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
  * The first pass over the input edges is the only input check, for both
  * metric families: it maps every endpoint to a state index, rejects one
  * that is neither a vertex nor benign (naming the smallest), and drops
  * self-loops and edges with a benign endpoint.
  *
  * Once the surviving rows fit [[SparkPeeling.DriverBudget]], the table
  * moves to the driver, one block per partition, shipped with the deltas
  * of the pass that produced it. Every later peel runs the same `drop` on
  * those blocks in partition order and starts no job, so w, f and the
  * history are the same as with every peel on the cluster (the switch of
  * direction-optimising traversal, Beamer et al., SC'12, applied to a
  * peeling table). The table starts there when its input already is: if
  * the edge frame's plan is a local table scan (a local relation, as
  * `toDF` of a local collection makes) whose rows fit the budget, the first
  * pass runs on the driver over the scan's own rows, cut into the blocks
  * its RDD would have, so the deltas merge in the same order; the pass
  * starts no Spark job (nor broadcast or checkpoint). Any other plan, or
  * more rows, takes the first pass's one job. A clique metric applies the
  * same switch to its input: when the kept edges of the first pass fit the
  * budget (2 members a row), the whole detection runs on the driver with
  * the local engine's [[CliqueMetricState]] and starts no listing job at
  * all. Clique counts are integers, so the result is bit-identical to the
  * distributed one.
  *
  * With the weights on the driver, every selection (τ, τ_max, the long-tail
  * count, the arg-min guard, the LPO trims, the best snapshot) is the local
  * engine's own loop, [[repro.local.DupinLocal.runOn]], so both engines
  * share one peeling policy and are cross-checked against each other in
  * tests. The result is that loop's [[repro.local.PeelResult]], whose
  * `bestSet` and `order` hold state indices: index `u` is the `u`-th
  * smallest non-benign vertex id ([[Vertices]]`.ids(u)`), which
  * [[Dupin.ParDetect]] maps back to ids.
  */
object SparkPeeling {

  /** Table members (rows × arity, as state indices) up to which the peel
    * finishes on the driver: 2M members, 8 MB of indices plus 8 bytes per
    * row for edge weights. A clique metric's kept input edges count 2
    * members a row (8 bytes an edge); the local graph built from them
    * keeps 24 bytes an edge, and at 1M edges the build ran in a 128 MB
    * heap but not in 96 MB.
    */
  val DriverBudget: Long = 1L << 21

  /** The budget a run uses; tests scope another with `withValue`. */
  private[core] val driverBudget = new scala.util.DynamicVariable[Long](DriverBudget)

  /** Vertex rows collected to the driver: the non-benign `ids` ascending,
    * so state index `u` is vertex `ids(u)` and `vw(u)` its vertex weight,
    * and the `benign` ids ascending.
    */
  final class Vertices private (val ids: Array[Long], val vw: Array[Double], val benign: Array[Long])

  object Vertices {
    /** Rejects a duplicated id, benign rows included, naming the smallest,
      * and (Property 3.1) a negative or non-finite vertex weight of a
      * non-benign row, naming its vertex.
      */
    def apply(rows: Array[(Long, Double, Boolean)]): Vertices = {
      val sorted = rows.sortBy(_._1)
      var i = 1
      while (i < sorted.length) {
        val id = sorted(i)._1
        require(id != sorted(i - 1)._1, s"vertex id $id appears more than once in vertices")
        i += 1
      }
      val (benign, kept) = sorted.partition(_._3)
      kept.foreach { case (id, vw, _) =>
        require(vw >= 0 && vw < Double.PositiveInfinity,
          s"vertex $id has suspiciousness $vw; Property 3.1 needs it finite and non-negative")
      }
      new Vertices(kept.map(_._1), kept.map(_._2), benign.map(_._1))
    }

    /** Each row's `id` as a `Long`, `vw` as a `Double` (a null reads as
      * NaN, which [[apply]] rejects) and `flag` (a null reads as false),
      * read through [[columns]]. Throws on a null id.
      */
    def read(df: DataFrame, vw: Column, flag: Column = lit(false)): Array[(Long, Double, Boolean)] = {
      val c = columns(df, col("id") -> LongType, vw -> DoubleType, flag -> BooleanType)
      c.collect().map { r =>
        require(!c.isNull(r, 0), "vertices has a row with a null id")
        (c.long(r, 0), c.double(r, 1), c.flag(r, 2))
      }
    }
  }

  /** Whether [[columns]] reads a frame's own fields; tests scope `false`
    * with `withValue` to compare that read with the projection.
    */
  private[core] val inPlace = new scala.util.DynamicVariable[Boolean](true)

  /** A caller's columns, read from `frame`: column `j` is the field
    * `at(j)` of each row or, where `at(j)` is negative, the constant
    * `const(j)` (of the wanted type, or null) in every row.
    */
  private[core] final class Columns(val frame: DataFrame, val at: Array[Int], const: Array[Any]) {
    /** The rows on the driver, from the frame's own physical plan: no
      * analysis or planning after the frame's first read, and no job for a
      * local relation.
      */
    def collect(): Array[InternalRow] = frame.queryExecution.executedPlan.executeCollect()

    def isNull(r: InternalRow, j: Int): Boolean = if (at(j) < 0) const(j) == null else r.isNullAt(at(j))
    def long(r: InternalRow, j: Int): Long = if (at(j) < 0) const(j).asInstanceOf[Long] else r.getLong(at(j))
    /** Column `j` of `r` as a `Double`; a null reads as NaN. */
    def double(r: InternalRow, j: Int): Double =
      if (isNull(r, j)) Double.NaN else if (at(j) < 0) const(j).asInstanceOf[Double] else r.getDouble(at(j))
    /** Column `j` of `r` as a flag; a null reads as false. */
    def flag(r: InternalRow, j: Int): Boolean =
      !isNull(r, j) && (if (at(j) < 0) const(j).asInstanceOf[Boolean] else r.getBoolean(at(j)))
    /** Column `j`'s constant as a `Double` (a null reads as NaN); NaN if
      * the column is a field.
      */
    def constant(j: Int): Double = if (at(j) < 0) double(null, j) else Double.NaN
  }

  /** The one read of a caller's columns, each wanted as a `LongType`,
    * `DoubleType` or `BooleanType`. A literal becomes a constant. A
    * single-part name that matches one top-level field of `df`'s schema,
    * case included, and no other field in any case, and whose field is of
    * the wanted type, becomes that field's index. Where every column
    * resolves so, the rows are `df`'s own, read through the plan Spark
    * keeps for `df`: no new `Dataset` is analysed or planned. Any other
    * column (an expression, a cast, a qualified, case-mismatched or
    * missing name) makes the read project `df` onto every column, cast to
    * its type, as `select` does (a missing name throws Spark's
    * `AnalysisException`), and read the projection's rows.
    */
  private[core] def columns(df: DataFrame, cols: (Column, DataType)*): Columns = {
    val slots = cols.map { case (c, t) => if (inPlace.value) slot(df, c, t) else None }
    if (slots.forall(_.isDefined))
      new Columns(df, slots.map(_.get._1).toArray, slots.map(_.get._2).toArray)
    else
      new Columns(df.select(cols.map { case (c, t) => c.cast(t) }: _*), cols.indices.toArray,
        new Array[Any](cols.length))
  }

  /** Column `c` of `df` as a field index (and no constant) or as a
    * constant (index -1), if it resolves to one as [[columns]] says.
    */
  private def slot(df: DataFrame, c: Column, t: DataType): Option[(Int, Any)] =
    ColumnNodes.literal(c) match {
      case Some((v, dt)) =>
        if (!dt.forall(_ == t)) None
        else ((v, t) match {
          case (null, _) => Some(null)
          case (x: Boolean, BooleanType) => Some(x)
          case (x: Double, DoubleType) => Some(x)
          case (x: Int, DoubleType) => Some(x.toDouble)
          case (x: Long, DoubleType) => Some(x.toDouble)
          case (x: Int, LongType) => Some(x.toLong)
          case (x: Long, LongType) => Some(x)
          case _ => None
        }).map(x => (-1, x))
      case None =>
        val fields = df.schema.fields
        ColumnNodes.name(c).flatMap { name =>
          fields.indices.filter(i => fields(i).name.equalsIgnoreCase(name)) match {
            case Seq(i) if fields(i).name == name && fields(i).dataType == t => Some((i, null))
            case _ => None
          }
        }
    }

  /** Run a built-in metric on a property graph: the metric's listing on
    * the [[Dupin]] API (paper §3, Listings 1–4), detected by `ParDetect`.
    * The result is [[Dupin.lastResult]], in state indices; on a graph with
    * dense ids (`fromLocal`, `fromDataset`) an index is its vertex id.
    */
  def run(spark: SparkSession, g: SparkGraph, metric: Metric,
          cfg: DupinLocal.Config = DupinLocal.Config()): PeelResult = {
    val dupin = new Dupin(spark, cfg)
    val edges = metric match {
      case DG => dupin.ESusp(lit(1.0)); g.edges
      case DW => dupin.ESusp(col("w")); g.edges
      case FD => dupin.VSusp(col("vw")).ESusp(col("w")); fraudarEdges(g.edges)
      case TDS | KCliDS(_) => dupin.setK(metric.k); g.edges
    }
    dupin.LoadGraph(g.vertices, edges).ParDetect()
    dupin.lastResult
  }

  /** Fraudar edge weights: `1/log(max(deg_src, deg_dst) + c)` with degrees
    * taken on the full graph (FD fixes them before peeling starts).
    */
  def fraudarEdges(edges: DataFrame): DataFrame = {
    val deg = edges.select(col("src").as("id")).union(edges.select(col("dst").as("id")))
      .groupBy("id").agg(count(lit(1)).as("deg"))
    edges
      // Left joins: an edge with a null end has no degree row, and stays
      // for the engine's endpoint check to name.
      .join(deg.select(col("id").as("src"), col("deg").as("ds")), Seq("src"), "left")
      .join(deg.select(col("id").as("dst"), col("deg").as("dd")), Seq("dst"), "left")
      .select(col("src"), col("dst"),
        (lit(1.0) / log(greatest(col("ds"), col("dd")) + lit(Metric.FraudarC))).as("w"))
  }

  /** Edge-sum peeling (DG/DW/FD and the user-defined facade metrics):
    * `w_u = vw_u + Σ_{(u,v)∈E[S]} w_uv`, `f = Σ vw + Σ w`. `edges` are raw
    * `src`, `dst` rows, each weighing `esusp`: either orientation, repeated
    * pairs and self-loops allowed, and each row adds its weight as a pair
    * summed over its rows would. The first pass ([[load]]) checks every
    * endpoint against the vertices and the benign ids of `v`, drops
    * self-loops and edges with a benign endpoint, and (Property 3.1)
    * requires the weight of every kept row to be finite and non-negative.
    */
  private[core] def runEdge(spark: SparkSession, v: Vertices, edges: DataFrame, esusp: Column,
                            cfg: DupinLocal.Config): PeelResult = {
    val table = new Table(spark.sparkContext, v.ids.length, 2)
    val e = columns(edges, col("src") -> LongType, col("dst") -> LongType, esusp -> DoubleType)
    val loaded = table.load(e.frame, v.ids, v.benign, e.at.take(2), weightAt = e.at(2), weight = e.constant(2))
    peel(2, cfg, new ClusterState(v.vw, table, loaded))
  }

  /** Clique-count peeling (TDS k=3, kCLiDS k=4): `w_u` = active k-cliques
    * through u, `f` = number of active k-cliques; `v`'s vertex weights are
    * not used. `edges` are raw `src`, `dst` rows, as for [[runEdge]]. The
    * first pass ([[load]]) checks and drops them as [[runEdge]]'s does and
    * keeps the rest as state index pairs. If they fit the budget, the
    * detection runs on the driver: [[repro.local.LocalGraph.fromEdges]]
    * builds the graph and the local [[CliqueMetricState]] peels it. (When
    * `edges` is a local relation that fits, the first pass runs on the
    * driver too, and the detection starts no Spark job.) Otherwise the
    * cliques of the kept pairs are listed once on the cluster, and each
    * peel drops the cliques that hold a peeled vertex.
    */
  private[core] def runClique(spark: SparkSession, v: Vertices, edges: DataFrame, k: Int,
                              cfg: DupinLocal.Config): PeelResult = {
    import spark.implicits._
    val n = v.ids.length
    val e = columns(edges, col("src") -> LongType, col("dst") -> LongType)
    val kept = new Table(spark.sparkContext, n, 2)
    kept.load(e.frame, v.ids, v.benign, e.at, weightAt = -1, weight = 1.0)
    if (kept.blocks != null) {
      val pairs = kept.blocks.flatMap(_.mem)
      kept.release()
      val es = new collection.IndexedSeq[(Int, Int, Double)] {
        def length: Int = pairs.length / 2
        def apply(i: Int): (Int, Int, Double) = (pairs(2 * i), pairs(2 * i + 1), 1.0)
      }
      val g = LocalGraph.fromEdges(n, es, threads = cfg.threads)
      peel(k, cfg, new CliqueMetricState(g, k, cfg.threads))
    } else {
      val listed = new Table(spark.sparkContext, n, k)
      val loaded = try {
        val canonical = kept.rows.flatMap { r =>
          Iterator.tabulate(r.count) { i =>
            val (a, b) = (r.mem(2 * i), r.mem(2 * i + 1))
            (math.min(a, b).toLong, math.max(a, b).toLong)
          }
        }.toDF("src", "dst")
        // The members listed are state indices already (no `ids`).
        listed.load(SparkCliques.cliques(canonical, k), null, Array.emptyLongArray, Array.range(0, k),
          weightAt = -1, weight = 1.0)
      } finally kept.release()
      peel(k, cfg, new ClusterState(new Array[Double](n), listed, loaded))
    }
  }

  private def peel(k: Int, cfg: DupinLocal.Config, state: PeelState): PeelResult =
    try DupinLocal.runOn(state, k, cfg) finally state.release()

  /** One block of the table, a partition's rows: row `r` holds the state
    * indices `mem(r * arity until (r + 1) * arity)` (an edge's endpoints or
    * a clique's members) and weighs `wt(r)`, or `unit` when `wt` is null.
    */
  private final class Rows(val arity: Int, val mem: Array[Int], val wt: Array[Double], val unit: Double)
      extends Serializable {
    def count: Int = mem.length / arity
    def weight(r: Int): Double = if (wt == null) unit else wt(r)
  }

  /** What one block's pass reports: the rows it counted took `sum(i)`
    * from vertex `idx(i)` (ascending) and `total` in all; `kept` rows stay
    * in the table. A first pass also reports the smallest endpoint that is
    * neither a vertex nor benign (`missing`, `Long.MaxValue` if none) and
    * describes its first null endpoint or kept row that breaks Property 3.1
    * (`error`).
    */
  private final class Delta(val idx: Array[Int], val sum: Array[Double], val total: Double,
                            val kept: Int, val missing: Long, val error: String) extends Serializable

  /** A per-vertex accumulator over `n` vertices; `result` hands out one
    * block's sums and clears them, so one accumulator serves many blocks.
    */
  private final class Sums(val n: Int) {
    private val acc = new Array[Double](n)
    private val seen = new Array[Boolean](n)
    private val idx = new mutable.ArrayBuilder.ofInt
    var total = 0.0

    def add(u: Int, a: Double): Unit = {
      if (!seen(u)) { seen(u) = true; idx += u }
      acc(u) += a
    }

    def result(kept: Int, missing: Long = Long.MaxValue, error: String = null): Delta = {
      val ix = idx.result()
      java.util.Arrays.sort(ix)
      val d = new Delta(ix, ix.map(acc), total, kept, missing, error)
      ix.foreach { u => acc(u) = 0.0; seen(u) = false }
      idx.clear()
      total = 0.0
      d
    }
  }

  /** The first pass over one block of input rows, the only place an input
    * id becomes a state index: the ids of a row are at the positions `at`,
    * its weight at `weightAt` (`weight` for every row if negative). Rows are
    * read as `InternalRow`s, so no `Row` object is made per input row. Every
    * row is read, and the smallest id that is not a state index and not one
    * of the ascending `benign` ids is reported. An id's state index is its
    * position in the ascending `ids` or, where `ids` is null (the input
    * holds state indices already), the id itself if it lies in
    * `[0, sums.n)`. A row with an id that has none, a null, a benign or a
    * repeated one (a self-loop) is dropped; the rest are counted into
    * `sums` and kept while their weights are valid.
    */
  private def load(sums: Sums, ids: Array[Long], benign: Array[Long], at: Array[Int], weightAt: Int,
                   weight: Double)(it: Iterator[InternalRow]): (Rows, Delta) = {
    val arity = at.length
    val mem = new mutable.ArrayBuilder.ofInt
    val wt = new mutable.ArrayBuilder.ofDouble
    val row = new Array[Int](arity)
    var missing = Long.MaxValue
    var error: String = null
    var count = 0
    while (it.hasNext) {
      val r = it.next()
      var keep = true
      var j = 0
      while (j < arity) {
        val id = r.getLong(at(j))
        // An InternalRow reads a null id as 0.
        row(j) =
          if (r.isNullAt(at(j))) -1
          else if (ids == null) (if (id >= 0 && id < sums.n) id.toInt else -1)
          else java.util.Arrays.binarySearch(ids, id)
        if (row(j) < 0) {
          keep = false
          if (r.isNullAt(at(j))) { if (error == null) error = "edge endpoint null is not a row of vertices" }
          else if (java.util.Arrays.binarySearch(benign, id) < 0) missing = math.min(missing, id)
        }
        j += 1
      }
      // Members are distinct unless the row is a self-loop.
      if (keep && error == null && row(0) != row(1)) {
        val w = if (weightAt < 0) weight else if (r.isNullAt(weightAt)) Double.NaN else r.getDouble(weightAt)
        if (!(w >= 0 && w < Double.PositiveInfinity))
          error = s"edge (${r.getLong(at(0))}, ${r.getLong(at(1))}) has suspiciousness $w; " +
            "Property 3.1 needs it finite and non-negative"
        else {
          row.foreach { u => mem += u; sums.add(u, w) }
          if (weightAt >= 0) wt += w
          sums.total += w
          count += 1
        }
      }
    }
    val rows = new Rows(arity, mem.result(), if (weightAt >= 0) wt.result() else null, weight)
    (rows, sums.result(count, missing, error))
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
      else new Rows(a, mem.result(), if (rows.wt != null) wt.result() else null, rows.unit)
    (rest, sums.result(kept))
  }

  /** The rows (edges or cliques) of a peel over `n` vertices, `arity` state
    * indices each: `localCheckpoint`ed on the cluster, or on the driver,
    * one block per partition, once they fit the budget (from the first pass
    * on if the input's rows are on the driver already and fit it).
    */
  private final class Table(sc: SparkContext, n: Int, arity: Int) {
    private val budget = driverBudget.value
    /** The checkpointed rows, and the broadcast of the pass that produced
      * them (its closure holds it until the rows are dropped).
      */
    private var cluster: RDD[(Rows, Delta)] = _
    private var clusterArg: Broadcast[_] = _
    /** The rows on the driver, one block per partition, once they fit. */
    var blocks: Array[Rows] = _
    var rowsLeft = 0L

    /** The cluster-side rows (while `blocks` is null). */
    def rows: RDD[Rows] = cluster.map(_._1)

    /** The first pass: [[load]] over every row of `input`, one block per
      * partition of its plan. If that plan is a local table scan, whose rows
      * are on the driver already, and they fit the budget (rows × arity; a
      * budget of 0 keeps the pass on the cluster), the pass runs on the
      * driver over the scan's own rows, cut as `parallelize` cuts them into
      * the partitions of `input`'s RDD (block `i` of `p` holds rows
      * `[i·len/p, (i+1)·len/p)`), and the table starts there: no broadcast,
      * checkpoint or job. Any other plan, or more rows, takes one [[pass]].
      * Throws, with the rows dropped, if an endpoint is neither a vertex
      * nor benign, naming the smallest over all blocks; otherwise if an
      * endpoint is null or a kept row breaks Property 3.1, naming the first
      * such row in block order.
      */
    def load(input: DataFrame, ids: Array[Long], benign: Array[Long], at: Array[Int],
             weightAt: Int, weight: Double): Array[Delta] = {
      val onDriver = input.queryExecution.executedPlan match {
        case scan: LocalTableScanExec if budget > 0 =>
          Some(scan.executeCollect()).filter(_.length.toLong * arity <= budget)
        case _ => None
      }
      val deltas = onDriver match {
        case Some(rows) =>
          val (len, p) = (rows.length.toLong, input.queryExecution.toRdd.getNumPartitions)
          val sums = new Sums(n)
          held(Array.tabulate(p) { i =>
            val block = Iterator.range((i * len / p).toInt, ((i + 1) * len / p).toInt).map(rows(_))
            SparkPeeling.load(sums, ids, benign, at, weightAt, weight)(block)
          })
        case None =>
          val nn = n
          pass(input.queryExecution.toRdd, (ids, benign))((a, it) =>
            SparkPeeling.load(new Sums(nn), a._1, a._2, at, weightAt, weight)(it))
      }
      val missing = deltas.foldLeft(Long.MaxValue)((m, d) => math.min(m, d.missing))
      val error =
        if (missing != Long.MaxValue) s"edge endpoint $missing is not a row of vertices"
        else deltas.map(_.error).find(_ != null).orNull
      if (error != null) { release(); throw new IllegalArgumentException(error) }
      deltas
    }

    /** A peel: drops the rows that hold a `peeled` vertex, on the driver once
      * the rows left fit the budget, and returns the deltas in partition order.
      */
    def remove(peeled: java.util.BitSet): Array[Delta] = {
      if (blocks == null && rowsLeft * arity <= budget) {
        blocks = rows.collect()
        unpersist()
      }
      if (blocks != null) {
        val sums = new Sums(n)
        held(blocks.map(drop(sums, peeled)))
      } else {
        val nn = n
        pass(cluster, peeled)((p, it) => drop(new Sums(nn), p)(it.next()._1))
      }
    }

    /** The blocks and deltas of a pass on the driver: the blocks are the
      * table now.
      */
    private def held(out: Array[(Rows, Delta)]): Array[Delta] = {
      blocks = out.map(_._1)
      val deltas = out.map(_._2)
      rowsLeft = deltas.map(_.kept.toLong).sum
      deltas
    }

    /** One job, for a first pass whose input is not on the driver and for
      * each peel while the table is on the cluster: `step` runs on every
      * partition of `src` with `arg` as a broadcast; the rows it keeps are
      * checkpointed as the new table and its deltas come back in partition
      * order. A partition's kept rows come back with its delta when they fit
      * its share of the budget; if the whole table fits and every block came
      * back, it moves to the driver and the cluster copy is dropped. (If a
      * skewed block stayed behind, the next peel collects the blocks instead
      * of running a pass.)
      */
    private def pass[A: ClassTag, T](src: RDD[T], arg: A)(
        step: (A, Iterator[T]) => (Rows, Delta)): Array[Delta] = {
      val bc = sc.broadcast(arg)
      val next = src.mapPartitions(it => Iterator.single(step(bc.value, it)))
      next.localCheckpoint()
      val share = budget / math.max(1, src.getNumPartitions)
      val out = next.map { case (rows, d) => (if (rows.mem.length <= share) rows else null, d) }.collect()
      unpersist()
      cluster = next
      clusterArg = bc
      val deltas = out.map(_._2)
      rowsLeft = deltas.map(_.kept.toLong).sum
      if (rowsLeft * arity <= budget && out.forall(_._1 != null)) {
        blocks = out.map(_._1)
        unpersist()
      }
      deltas
    }

    /** Drop the rows, wherever they are. */
    def release(): Unit = { unpersist(); blocks = null; rowsLeft = 0 }

    /** Drop the cluster-side rows. */
    private def unpersist(): Unit = if (cluster != null) {
      cluster.unpersist(blocking = false)
      clusterArg.destroy()
      cluster = null
    }
  }

  /** Dupin's peeling state with the vertices (weights `vw`) on the driver
    * and the rows in `table`, whose first pass gave the deltas `loaded`.
    */
  private final class ClusterState(vw: Array[Double], table: Table, loaded: Array[Delta])
      extends PeelState {
    val n: Int = vw.length
    private val act = Array.fill(n)(true)
    private var cnt = n
    private val wArr = vw.clone()
    private var fVal = vw.sum
    merge(loaded, 1.0)

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
      else if (table.rowsLeft > 0) {
        val peeled = new java.util.BitSet(n)
        us.foreach(peeled.set)
        merge(table.remove(peeled), -1.0)
      }
    }

    /** Add (`sign` 1) or subtract (-1) the deltas, in partition order. */
    private def merge(deltas: Array[Delta], sign: Double): Unit = deltas.foreach { d =>
      var i = 0
      while (i < d.idx.length) { wArr(d.idx(i)) += sign * d.sum(i); i += 1 }
      fVal += sign * d.total
    }

    override def release(): Unit = table.release()
  }
}
