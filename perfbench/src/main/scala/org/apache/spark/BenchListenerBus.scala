package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private. */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
