package repro.flavor

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** Spark DataFrame views of the flavor universe. `profiles` and
  * `pairShared(spark, u)` are generated inside Spark tasks over a range of
  * ingredient indices, and the pair-overlap table is read off the driver's
  * [[FlavorUniverse.overlap]], the one source of w_ij that the kernels also
  * score with. `pairShared(profilesDf)` computes the same table *in Spark*
  * (self-join on molecule + aggregate) and is kept as its reference.
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
    * pooled unions [[FlavorGen]] built (Materials III.C). Rows come in
    * ingredient order, each profile in its set's iteration order, so
    * collect order is `u.ingredients.flatMap(i => i.profile.toSeq.map(m => (i.id, m)))`:
    * range partitions are contiguous. The task closure captures only each
    * ingredient's id and its profile as an `Array[Int]`, not `u`.
    */
  def profiles(spark: SparkSession, u: FlavorUniverse): DataFrame = {
    import spark.implicits._
    val ids = u.ingredients.map(_.id).toArray
    val molecules = u.ingredients.map(_.profile.toArray).toArray
    indices(spark, u.size)
      .flatMap { a => val i = a.intValue; molecules(i).iterator.map(m => (ids(i), m)) }
      .toDF("ing_id", "molecule")
  }

  /** Pairwise shared-molecule counts |F_i ∩ F_j| read off
    * [[FlavorUniverse.overlap]]: (ing_a < ing_b, shared), non-null ints,
    * the same rows and schema as the self-join `pairShared(profilesDf)`.
    * Pairs sharing no molecule are absent. The task closure captures only
    * a broadcast of `u.overlap` and `u.size`, not `u`, so a stage that reads
    * this table or its cache does not ship the matrix in its task binary.
    */
  def pairShared(spark: SparkSession, u: FlavorUniverse): DataFrame = {
    import spark.implicits._
    val overlapBc = spark.sparkContext.broadcast(u.overlap)
    val n = u.size
    indices(spark, n)
      .flatMap { a0 =>
        val a = a0.intValue
        val overlap = overlapBc.value
        Iterator.range(a + 1, n).filter(b => overlap(a * n + b) > 0).map(b => (a, b, overlap(a * n + b)))
      }
      .toDF("ing_a", "ing_b", "shared")
  }

  /** Pairwise shared-molecule counts |F_i ∩ F_j| via a self-join on
    * molecule: (ing_a < ing_b, shared). Pairs sharing no molecule are
    * absent — consumers must left-join and coalesce to 0. The reference
    * for `pairShared(spark, u)`.
    */
  def pairShared(profilesDf: DataFrame): DataFrame = {
    val a = profilesDf.select(col("ing_id").as("ing_a"), col("molecule"))
    val b = profilesDf.select(col("ing_id").as("ing_b"), col("molecule"))
    a.join(b, Seq("molecule"))
      .filter(col("ing_a") < col("ing_b"))
      .groupBy("ing_a", "ing_b")
      .agg(count(lit(1)).cast("int").as("shared"))
  }

  /** Ingredient indices [0, n) in contiguous slices, one per core. */
  private def indices(spark: SparkSession, n: Int): Dataset[java.lang.Long] =
    spark.range(0, n, 1, spark.sparkContext.defaultParallelism)
}
