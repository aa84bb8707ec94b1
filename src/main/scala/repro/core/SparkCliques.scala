package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** k-clique listing (k in {3,4}) and per-vertex clique counts on DataFrames.
  *
  * Input edges must be undirected-canonical (`src < dst`); a pair may
  * repeat. The listing is kCLIST-style (Danisch, Balalau, Sozio, WWW'18)
  * over the id-oriented DAG: one `groupBy` builds every vertex's sorted,
  * de-duplicated out-list (its neighbours with a larger id), and a partial
  * clique grows one member at a time, by k−2 equi-joins of its last member
  * against that one table. Each join keeps the part of the candidate list
  * after the member and intersects it with the member's out-list; the last
  * member is exploded from what is left. Members therefore come out in
  * increasing id order, `a < b < c (< d)`, and every clique is listed
  * exactly once. The Spark engine lists the cliques once per TDS/kCLiDS run
  * whose edges do not fit its driver budget, and derives every round's
  * peeling weights from that table; tests check listings and counts
  * against brute force and a DuckDB SQL oracle.
  */
object SparkCliques {

  /** The member columns of a k-clique listing: a, b, c (, d). */
  def columns(k: Int): Seq[String] = Seq("a", "b", "c", "d").take(k)

  /** k-cliques for k in {3,4}, one row each, with columns `columns(k)`. */
  def cliques(edges: DataFrame, k: Int): DataFrame = {
    require(k == 3 || k == 4, s"k=$k unsupported")
    val cs = columns(k)
    val (pos, cand) = (col("pos"), col("cand"))
    val out = edges.groupBy(col("src").as("id"))
      .agg(array_sort(array_distinct(collect_list(col("dst")))).as("out"))
    // Invariant: members cs(0..i-1) form a clique and `cand` holds, ascending,
    // their common neighbours above the last member.
    var part = out.select(col("id").as(cs.head), col("out").as("cand"))
    for (i <- 1 to k - 2) {
      val need = k - 1 - i // members still to come after cs(i)
      part = part.select(cs.take(i).map(col) :+ cand :+ posexplode(cand).as(Seq("pos", cs(i))): _*)
        .where(size(cand) - pos - 1 >= need)
        .select(cs.take(i + 1).map(col) :+ slice(cand, pos + 2, size(cand) - pos - 1).as("rest"): _*)
        .join(out.withColumnRenamed("id", cs(i)), cs(i))
        .select(cs.take(i + 1).map(col) :+ array_intersect(col("rest"), col("out")).as("cand"): _*)
        .where(size(cand) >= need)
    }
    part.select(cs.init.map(col) :+ explode(cand).as(cs.last): _*)
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
