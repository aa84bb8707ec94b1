package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.Dataset
import repro.local.LocalGraph

/** DataFrame property graph.
  *
  * Invariants: `vertices(id: Long, vw: Double)` with unique ids;
  * `edges(src: Long, dst: Long, w: Double)` undirected-canonical
  * (`src < dst`, no loops, one coalesced row per pair — parallel edges'
  * weights are summed, matching [[repro.local.LocalGraph.fromEdges]]).
  */
final case class SparkGraph(vertices: DataFrame, edges: DataFrame) {

  /** Collect into the local CSR substrate (ids must be unique and dense
    * [0, n)).
    */
  def toLocal: LocalGraph = {
    val vs = SparkPeeling.Vertices.read(vertices, col("vw"))
    SparkPeeling.requireUnique(vs.map(_._1).sorted)
    val n = vs.length
    val vw = new Array[Double](n)
    vs.foreach { case (id, w, _) =>
      require(id >= 0 && id < n, s"toLocal requires dense ids, got $id of $n")
      vw(id.toInt) = w
    }
    val es = edges.select(col("src").cast("long"), col("dst").cast("long"), col("w").cast("double"))
      .collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt, r.getDouble(2)))
    LocalGraph.fromEdges(n, es.toIndexedSeq, vw)
  }
}

object SparkGraph {

  /** One row per unordered pair of raw `src`, `dst` rows: the ends as
    * `Long`s in ascending order and `w` summed over the pair's rows. A null
    * end (which `least` would skip) sorts first and stays, so the engine's
    * endpoint check names it.
    */
  def canonical(rawEdges: DataFrame, w: Column): DataFrame = {
    val ends = sort_array(array(col("src").cast("long"), col("dst").cast("long")))
    rawEdges.select(ends(0).as("src"), ends(1).as("dst"), w.cast("double").as("w"))
      .groupBy("src", "dst").agg(sum("w").as("w"))
  }

  /** Canonicalize raw (possibly directed / duplicated / self-looped) edges
    * and build the graph; vertices are the union of endpoints plus any in
    * `rawVertices`, with vw defaulting to 0. A self-loop is dropped; an
    * edge with a null end is kept (no vertex has a null id).
    */
  def apply(spark: SparkSession, rawEdges: DataFrame,
            rawVertices: Option[DataFrame] = None): SparkGraph = {
    val e = canonical(rawEdges, coalesce(col("w"), lit(1.0)))
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
