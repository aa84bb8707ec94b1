package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Dataset
import repro.local._
import repro.spade.Spade

/** Shared method runner for the table harnesses: one name per system row in
  * the paper's tables, all executed on the identical substrate
  * (DESIGN.md §2). Runs are wall-clock timed and subject to a deadline
  * (`TLE` like the paper's 7200s limit, scaled down via BENCH_TIMEOUT_SEC).
  */
object Runner {

  val timeoutSec: Double =
    sys.env.get("BENCH_TIMEOUT_SEC").map(_.toDouble).getOrElse(120.0)

  val threads: Int =
    sys.env.get("BENCH_THREADS").map(_.toInt).getOrElse(Par.defaultThreads)

  sealed trait Outcome {
    def timeCell: String
    def densityCell: String
  }
  final case class Ok(seconds: Double, density: Double, rounds: Int) extends Outcome {
    def timeCell: String = f"$seconds%.3f"
    def densityCell: String = if (density >= 100) f"$density%.0f" else f"$density%.3f"
  }
  case object Tle extends Outcome { def timeCell = "TLE"; def densityCell = "TLE" }

  /** Methods applicable to the edge metrics (Table 5/7 row order). */
  val edgeMethods: Seq[String] = Method.supporting(Metric.edgeMetrics)
  /** Methods applicable to the clique metrics (Table 6/8 row order). */
  val cliqueMethods: Seq[String] = Method.supporting(Metric.cliqueMetrics)

  /** Run the registry's `method` × `metric` on `d` with `t` threads; a run
    * past `timeout` seconds is a TLE.
    */
  def run(method: String, metric: Metric, d: Dataset,
          t: Int = threads, timeout: Double = timeoutSec): Outcome =
    try Method(method).run(metric, d, t, Deadline.in(timeout))
    catch { case _: TleException => Tle }

  /** Wall-clock one peeling call. */
  def timed(peel: => PeelResult): Ok = {
    val t0 = System.nanoTime()
    val r = peel
    Ok((System.nanoTime() - t0) / 1e9, r.bestDensity, r.rounds)
  }

  /** Spade's batches per table cell, and edges per batch (the paper's 1K). */
  private val SpadeBatches = 3
  private val SpadeBatchSize = 1000

  /** Spade's table cell: average per-batch incremental latency (the paper's
    * protocol — batch size 1K, averaged) on the final fraud-forming batches
    * of the dataset's edge stream; density is Spade's maintained result.
    */
  def spadeAvgBatch(metric: Metric, d: Dataset, deadline: Long): Ok = {
    val sp = new Spade(metric, d.n, d.vertexWeights, deadline)
    val nb = math.min(SpadeBatches, math.max(1, d.edges.size / SpadeBatchSize - 1))
    val cut = math.max(0, d.edges.size - nb * SpadeBatchSize)
    if (cut > 0) sp.insertBatch(d.edges.take(cut)) // untimed initial build
    var total = 0L
    var i = 0
    while (i < nb) {
      val batch = d.edges.slice(cut + i * SpadeBatchSize, cut + (i + 1) * SpadeBatchSize)
      val t0 = System.nanoTime()
      sp.insertBatch(batch)
      total += System.nanoTime() - t0
      i += 1
    }
    Ok(total / 1e9 / nb, sp.reportedDensity, nb)
  }

  /** Supplemental: Dupin's Spark dataflow engine with the default
    * `DupinLocal.Config()`, timed end-to-end. The peels start no shuffle;
    * the setting sizes only the shuffles of
    * [[SparkGraph.apply]]'s canonicalisation and FD's
    * [[SparkPeeling.fraudarEdges]], whose frames are small, so shuffle
    * parallelism is dialed down for the duration of the run (restored
    * afterwards).
    */
  def runSpark(spark: SparkSession, metric: Metric, d: Dataset): Outcome = {
    val key = "spark.sql.shuffle.partitions"
    val prev = spark.conf.get(key)
    spark.conf.set(key, "8")
    try {
      val g = SparkGraph.fromDataset(spark, d)
      timed(SparkPeeling.run(spark, g, metric))
    } finally spark.conf.set(key, prev)
  }
}
