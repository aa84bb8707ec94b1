package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Spark delivers listener events on a background thread. The traced run
  * waits here after each detection so that every job, stage and task event
  * of that detection has reached the benchmark's listener before it is read.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
