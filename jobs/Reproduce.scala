package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments._
import repro.pipeline.Pipeline

/** Reproduces the paper's artifacts, Table 1 and Figs 2–5, each printed as
  * a table beside the paper's values. Fig 4 draws [[PaperNRand]] random
  * recipes per null model; Fig 5 ranks contributors by the pairing signs
  * that Fig 4 observes, so `all` runs the Monte Carlo once.
  *
  * Usage: spark-submit --class repro.jobs.Reproduce repro.jar <table1|fig2|fig3|fig4|fig5|all> [scale]
  */
object Reproduce {

  val Artifacts: Vector[String] = Vector("table1", "fig2", "fig3", "fig4", "fig5")

  /** The artifacts `name` stands for; any other name is rejected. */
  def artifacts(name: String): Vector[String] = {
    require(name == "all" || Artifacts.contains(name),
            s"unknown artifact '$name'; expected one of ${(Artifacts :+ "all").mkString(", ")}")
    if (name == "all") Artifacts else Vector(name)
  }

  def main(args: Array[String]): Unit = {
    val wanted = artifacts(args.headOption.getOrElse(""))
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val spark = SparkSession.builder().appName("reproduce").getOrCreate()
    val p = Pipeline.get(spark, scale)
    lazy val fig4 = foodPairing(p, PaperNRand)
    for (artifact <- wanted) println("\n" + (artifact match {
      case "table1" => renderTable1(table1(p))
      case "fig2"   => renderFig2(categoryComposition(p))
      case "fig3"   => renderFig3(worldSizeHistogram(p), meanSizes(p), popularitySlopes(p))
      case "fig4"   => renderFig4(fig4, PaperNRand)
      case "fig5"   => val signs = observedSigns(fig4); renderFig5(topContributors(p, signs), signs)
    }))
    spark.stop()
  }
}
