package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Quick end-to-end smoke run at reduced scale (not a paper table). */
object SmokeJob {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(0.05)
    val nRand = args.lift(1).map(_.toInt).getOrElse(2000)
    val spark = SparkSession.builder.master("local[*]").appName("smoke")
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    val p = Pipeline.get(spark, scale)
    println(s"recipes rows = ${p.recipes.count()}, phrases = ${p.phrases.count()}")
    val unmatched = repro.ingest.Aliaser.alias(spark, p.universe, p.phrases)
      .filter(org.apache.spark.sql.functions.col("ing_id") === -1).count()
    println(s"unmatched phrases = $unmatched")

    val rows = Experiments.foodPairing(p, nRand,
      regions = Vector("ITA", "USA", "SCND", "KOR", "AFR", "EE"))
    rows.foreach(r => println(f"${r.region}%-5s ${r.model}%-14s nsReal=${r.nsReal}%.3f nsRand=${r.nsRand}%.3f z=${r.z}%8.1f"))
    spark.stop()
  }
}
