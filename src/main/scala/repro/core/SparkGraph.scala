package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.Dataset
import repro.local.LocalGraph

/** DataFrame property graph: `vertices(id: Long, vw: Double)` with unique
  * ids and `edges(src: Long, dst: Long, w: Double)`. [[SparkGraph.apply]]
  * and [[SparkGraph.fromLocal]] make the edges undirected-canonical
  * (`src < dst`, no loops, one coalesced row per pair — parallel edges'
  * weights are summed, matching [[repro.local.LocalGraph.fromEdges]]); the
  * engine also takes raw rows, whose weights add up per pair the same way.
  */
final case class SparkGraph(vertices: DataFrame, edges: DataFrame) {

  /** Collect into the local CSR substrate (ids must be unique and dense
    * [0, n)). An edge end that is null or outside [0, n) is named.
    */
  def toLocal: LocalGraph = {
    val v = SparkPeeling.Vertices(SparkPeeling.Vertices.read(vertices, col("vw")))
    val n = v.ids.length
    v.ids.foreach(id => require(id >= 0 && id < n, s"toLocal requires dense ids, got $id of $n"))
    def end(r: Row, i: Int): Int = {
      require(!r.isNullAt(i) && r.getLong(i) >= 0 && r.getLong(i) < n,
        s"edge endpoint ${r.get(i)} is not a row of vertices [0, $n)")
      r.getLong(i).toInt
    }
    val es = edges.select(col("src").cast("long"), col("dst").cast("long"), col("w").cast("double"))
      .collect()
      .map(r => (end(r, 0), end(r, 1), r.getDouble(2)))
    LocalGraph.fromEdges(n, es.toIndexedSeq, v.vw)
  }
}

object SparkGraph {

  /** Canonicalize raw (possibly directed / duplicated / self-looped) edges
    * and build the graph; vertices are the union of endpoints plus any in
    * `rawVertices`, with vw defaulting to 0. A self-loop is dropped; an
    * edge with a null end is kept (no vertex has a null id).
    */
  def apply(spark: SparkSession, rawEdges: DataFrame,
            rawVertices: Option[DataFrame] = None): SparkGraph = {
    // One row per unordered pair: the ends as `Long`s in ascending order and
    // `w` (1 if null) summed over the pair's rows. A null end (which `least`
    // would skip) sorts first and stays, so the engine's endpoint check
    // names it.
    val ends = sort_array(array(col("src").cast("long"), col("dst").cast("long")))
    val w = coalesce(col("w"), lit(1.0)).cast("double")
    val e = rawEdges.select(ends(0).as("src"), ends(1).as("dst"), w.as("w"))
      .groupBy("src", "dst").agg(sum("w").as("w"))
      .where(col("src").isNull || col("src") =!= col("dst"))
    val endpointIds = e.select(col("src").as("id")).union(e.select(col("dst").as("id")))
      .where(col("id").isNotNull).distinct()
    val v = rawVertices match {
      case Some(vs) =>
        val base = vs.select(col("id").cast("long"),
          coalesce(col("vw"), lit(0.0)).cast("double").as("vw"))
        endpointIds.join(base, Seq("id"), "left")
          .select(col("id"), coalesce(col("vw"), lit(0.0)).as("vw"))
          .union(base.join(endpointIds, Seq("id"), "left_anti"))
      case None => endpointIds.withColumn("vw", lit(0.0))
    }
    SparkGraph(v, e)
  }

  /** Lift the local CSR graph into DataFrames (ids stay dense). */
  def fromLocal(spark: SparkSession, g: LocalGraph): SparkGraph = {
    import spark.implicits._
    val v = (0 until g.n).map(u => (u.toLong, g.vw(u))).toDF("id", "vw")
    val e = g.canonicalEdges.toIndexedSeq
      .map { case (a, b, w) => (a.toLong, b.toLong, w) }.toDF("src", "dst", "w")
    SparkGraph(v, e)
  }

  /** Lift a registry dataset (edges are canonicalized/coalesced here). */
  def fromDataset(spark: SparkSession, d: Dataset): SparkGraph = {
    import spark.implicits._
    val raw = d.edges.map { case (a, b, w) => (a.toLong, b.toLong, w) }.toDF("src", "dst", "w")
    val vs = (0 until d.n).map(u => (u.toLong, d.vertexWeights(u))).toDF("id", "vw")
    apply(spark, raw, Some(vs))
  }
}
