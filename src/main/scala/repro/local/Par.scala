package repro.local

import java.util.concurrent.ForkJoinPool
import java.util.concurrent.atomic.AtomicInteger

/** Thread-pool substrate for the local (shared-memory) engine.
  *
  * Mirrors the paper's OpenMP `parallel_for`: every parallel
  * method takes an explicit thread count `t` so the bench harness can sweep
  * concurrency (Table 10's hardware proxy) exactly like the paper sweeps
  * threads. `t <= 1` degenerates to a plain sequential loop so sequential
  * baselines and parallel ones share the same code paths.
  */
object Par {

  /** Default concurrency: container cores capped at 16 (the bench default). */
  val defaultThreads: Int =
    math.min(16, Runtime.getRuntime.availableProcessors())

  private val pools = new java.util.concurrent.ConcurrentHashMap[Int, ForkJoinPool]()

  private def pool(t: Int): ForkJoinPool =
    pools.computeIfAbsent(t, n => new ForkJoinPool(n))

  /** First index of chunk `c` when `[0, n)` is cut into `chunks` near-equal
    * contiguous chunks; chunk `c` is `[chunkStart(n, c, chunks),
    * chunkStart(n, c + 1, chunks))`.
    */
  def chunkStart(n: Int, c: Int, chunks: Int): Int = (n.toLong * c / chunks).toInt

  /** The sequential cutoff for light loop bodies (array scans): a scan step
    * costs about a nanosecond and a hand-off to the pool about 25 µs
    * (4 vCPU: 2048 entries take 1.8 µs on the caller and 25 µs on the pool,
    * 64K entries 113 and 78 µs), so shorter loops run on the calling thread.
    */
  val MinPar: Int = 1 << 15

  /** `parallel_for i in [0, n)` over `t` threads using static block
    * partitioning. `minPar` is the sequential cutoff: leave the default
    * ([[MinPar]]) for light loop bodies (array scans); pass a small value
    * when each iteration is heavy (clique enumeration) so small ranges
    * still fan out.
    */
  def parallelFor(n: Int, t: Int, minPar: Int = MinPar)(body: Int => Unit): Unit = {
    val chunks = if (t <= 1 || n < minPar) 1 else t * 4
    parallelForChunks(chunks, t) { c =>
      var i = chunkStart(n, c, chunks); val hi = chunkStart(n, c + 1, chunks)
      while (i < hi) { body(i); i += 1 }
    }
  }

  /** Runs `body(c)` exactly once for every chunk `c` in `[0, chunks)`: up to
    * `t` workers each take the next unclaimed chunk until none is left.
    * `t <= 1` or a single chunk runs inline, in chunk order. Returns when
    * every chunk has finished.
    */
  def parallelForChunks(chunks: Int, t: Int)(body: Int => Unit): Unit = {
    if (t <= 1 || chunks <= 1) {
      var c = 0; while (c < chunks) { body(c); c += 1 }
    } else {
      val next = new AtomicInteger(0)
      val tasks = (0 until math.min(t, chunks)).map { _ =>
        pool(t).submit(new Runnable {
          def run(): Unit = {
            var c = next.getAndIncrement()
            while (c < chunks) { body(c); c = next.getAndIncrement() }
          }
        })
      }
      tasks.foreach(_.join())
    }
  }
}
