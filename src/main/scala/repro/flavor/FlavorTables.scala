package repro.flavor

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Spark DataFrame views of the flavor universe. The pairwise
  * shared-molecule table is computed *in Spark* (self-join + aggregate) and
  * cross-checked against the driver-side universe in tests.
  */
object FlavorTables {

  /** (ing_id, name, category, is_compound, is_core) */
  def ingredients(spark: SparkSession, u: FlavorUniverse): DataFrame = {
    import spark.implicits._
    u.ingredients
      .map(i => (i.id, i.name, i.category, i.isCompound, i.isCore))
      .toDF("ing_id", "name", "category", "is_compound", "is_core")
  }

  /** (ing_id, molecule) for every ingredient; compound profiles are the
    * pooled unions [[FlavorGen]] built (Materials III.C).
    */
  def profiles(spark: SparkSession, u: FlavorUniverse): DataFrame = {
    import spark.implicits._
    u.ingredients
      .flatMap(i => i.profile.toSeq.map(m => (i.id, m)))
      .toDF("ing_id", "molecule")
  }

  /** Pairwise shared-molecule counts |F_i ∩ F_j| via a self-join on
    * molecule: (ing_a < ing_b, shared). Pairs sharing no molecule are
    * absent — consumers must left-join and coalesce to 0.
    */
  def pairShared(profilesDf: DataFrame): DataFrame = {
    val a = profilesDf.select(col("ing_id").as("ing_a"), col("molecule"))
    val b = profilesDf.select(col("ing_id").as("ing_b"), col("molecule"))
    a.join(b, Seq("molecule"))
      .filter(col("ing_a") < col("ing_b"))
      .groupBy("ing_a", "ing_b")
      .agg(count(lit(1)).cast("int").as("shared"))
  }
}
