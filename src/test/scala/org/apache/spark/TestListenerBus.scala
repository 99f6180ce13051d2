package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * after it returns, every listener has seen the events of the jobs that
  * have finished.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
