package repro.local

import org.scalatest.funsuite.AnyFunSuite
import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLong}

/** The shared-memory parallel-for/parallel-sum substrate. */
class ParSpec extends AnyFunSuite {

  test("parallelFor covers every index exactly once (small, sequential path)") {
    val seen = new Array[Int](100)
    Par.parallelFor(100, 4)(i => seen(i) += 1)
    assert(seen.forall(_ == 1))
  }

  test("parallelFor covers every index exactly once (large, threaded path)") {
    val n = 100000
    val seen = new AtomicLong()
    Par.parallelFor(n, 4)(_ => seen.incrementAndGet())
    assert(seen.get() == n)
  }

  test("parallelForChunks runs every chunk exactly once") {
    for (t <- Seq(1, 8)) {
      val runs = new AtomicIntegerArray(37)
      Par.parallelForChunks(37, t)(c => runs.incrementAndGet(c))
      assert((0 until 37).forall(runs.get(_) == 1), s"t=$t")
    }
  }

  test("parallelSum equals sequential sum") {
    val n = 50000
    val expect = (0 until n).map(i => i * 0.5).sum
    for (t <- Seq(1, 2, 8)) {
      val got = Par.parallelSum(n, t)(i => i * 0.5)
      assert(math.abs(got - expect) < 1e-6, s"t=$t")
    }
  }

  test("parallelSum of nothing is zero") {
    assert(Par.parallelSum(0, 4)(_ => 1.0) == 0.0)
  }

  test("defaultThreads is positive and capped at 16") {
    assert(Par.defaultThreads >= 1 && Par.defaultThreads <= 16)
  }

  test("Deadline.in(∞) never fires; expired deadline throws") {
    Deadline.check(Deadline.in(Double.PositiveInfinity), "never")
    Deadline.check(Long.MaxValue, "never")
    assertThrows[TleException](Deadline.check(System.nanoTime() - 1, "boom"))
  }
}
