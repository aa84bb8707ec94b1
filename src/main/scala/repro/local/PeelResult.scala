package repro.local

/** Outcome of a peeling run.
  *
  * @param bestSet      the vertex set S^p maximizing g over observed snapshots
  * @param bestDensity  g(S^p)
  * @param rounds       number of (outer) peeling iterations
  * @param longTailPeels vertices peeled only because of the GPO global
  *                      threshold (would have survived the plain threshold)
  * @param sparseTrims  vertices trimmed by the LPO inner loop
  * @param history      densities of the observed snapshots S_0, S_1, ...
  * @param order        full removal order (Spade stitches suffixes of it)
  * @param truncated    the run stopped at `maxRounds` with vertices still
  *                     active, so `bestSet` is the best of a partial peel
  */
final case class PeelResult(
    bestSet: Array[Int],
    bestDensity: Double,
    rounds: Int,
    longTailPeels: Long,
    sparseTrims: Long,
    history: Vector[Double],
    order: Array[Int],
    truncated: Boolean = false)

/** Thrown when a run exceeds its deadline; benches render it as TLE. */
final class TleException(msg: String) extends RuntimeException(msg)

object Deadline {
  /** Absolute nanoTime deadline `seconds` from now (Long.MaxValue = none). */
  def in(seconds: Double): Long =
    if (seconds <= 0 || seconds == Double.PositiveInfinity) Long.MaxValue
    else System.nanoTime() + (seconds * 1e9).toLong

  @inline def check(deadline: Long, what: String): Unit =
    if (deadline != Long.MaxValue && System.nanoTime() > deadline)
      throw new TleException(what)
}
