package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Per-vertex triangle / 4-clique counts as DataFrame self-joins.
  *
  * Input edges must be undirected-canonical (`src < dst`), which makes the
  * enumeration orders `a < b < c (< d)` automatic so every clique is listed
  * exactly once. The Spark engine lists the cliques once per TDS/kCLiDS
  * run and derives every round's peeling weights from that table; tests
  * check listings and counts against brute force and a DuckDB SQL oracle.
  */
object SparkCliques {

  /** Triangles (a<b<c) as a DataFrame with columns a, b, c. */
  def triangles(edges: DataFrame): DataFrame = {
    val ab = edges.select(col("src").as("a"), col("dst").as("b"))
    val bc = edges.select(col("src").as("b"), col("dst").as("c"))
    val ac = edges.select(col("src").as("a"), col("dst").as("c"))
    ab.join(bc, "b").join(ac, Seq("a", "c")).select("a", "b", "c")
  }

  /** 4-cliques (a<b<c<d) as a DataFrame with columns a, b, c, d. */
  def fourCliques(edges: DataFrame): DataFrame = {
    val cd = edges.select(col("src").as("c"), col("dst").as("d"))
    val ad = edges.select(col("src").as("a"), col("dst").as("d"))
    val bd = edges.select(col("src").as("b"), col("dst").as("d"))
    triangles(edges).join(cd, "c").join(ad, Seq("a", "d")).join(bd, Seq("b", "d"))
      .select("a", "b", "c", "d")
  }

  /** The member columns of a k-clique listing: a, b, c (, d). */
  def columns(k: Int): Seq[String] = Seq("a", "b", "c", "d").take(k)

  /** k-cliques for k in {3,4}, one row each, with columns `columns(k)`. */
  def cliques(edges: DataFrame, k: Int): DataFrame = {
    require(k == 3 || k == 4, s"k=$k unsupported")
    if (k == 3) triangles(edges) else fourCliques(edges)
  }

  /** Per-vertex k-clique participation counts (id, cnt) for k in {3,4}.
    * Vertices in no clique are absent — callers coalesce to 0.
    */
  def cliqueCounts(edges: DataFrame, k: Int): DataFrame = {
    val cl = cliques(edges, k)
    columns(k).map(c => cl.select(col(c).as("id")))
      .reduce(_ union _)
      .groupBy("id").agg(count(lit(1)).cast("double").as("cnt"))
  }
}
