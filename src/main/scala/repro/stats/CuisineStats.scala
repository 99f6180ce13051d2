package repro.stats

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Corpus-level statistics of the recipe database (paper Table 1, Fig 2,
  * Fig 3) as DataFrame aggregations over the aliased recipe table
  * (region, recipe_id, ing_id). The artifacts compute them on the driver
  * with [[CorpusKernel]]; these definitions are its reference, which the
  * tests and the DuckDB oracle check.
  */
object CuisineStats {

  /** Region code used for the aggregate row / unregioned recipes. */
  val World = "WORLD"
  val Unregioned = "UNREG"

  /** Table 1: recipes and unique mapped ingredients per region, plus a
    * WORLD row aggregating every recipe (including the 207 unregioned
    * ones, per Materials III.A).
    */
  def table1(recipes: DataFrame): DataFrame = {
    val perRegion = recipes.filter(col("region") =!= Unregioned)
      .groupBy("region")
      .agg(countDistinct("recipe_id").as("recipes"),
           countDistinct("ing_id").as("ingredients"))
    val world = recipes
      .agg(countDistinct(col("region"), col("recipe_id")).as("recipes"),
           countDistinct("ing_id").as("ingredients"))
      .select(lit(World).as("region"), col("recipes"), col("ingredients"))
    perRegion.unionByName(world)
  }

  /** Recipe-size histogram: (region, n, recipes_with_n); pass region =
    * WORLD rows via [[withWorld]] first if an aggregate view is wanted.
    */
  def sizeDistribution(recipes: DataFrame): DataFrame =
    recipeSizes(recipes).groupBy("region", "n").agg(count(lit(1)).as("recipes_with_n"))

  /** Mean recipe size per region (paper: ≈ 9 across the world). */
  def meanRecipeSize(recipes: DataFrame): DataFrame =
    recipeSizes(recipes).groupBy("region").agg(avg("n").as("mean_size"), max("n").as("max_size"))

  /** Recipe size n, the number of distinct ingredients: (region, recipe_id, n). */
  private[repro] def recipeSizes(recipes: DataFrame): DataFrame =
    recipes.select("region", "recipe_id", "ing_id").distinct()
      .groupBy("region", "recipe_id").agg(count(lit(1)).cast("int").as("n"))

  /** Ingredient popularity per region: frequency of use, popularity rank
    * and frequency normalized by the most popular ingredient (Fig 3b).
    */
  def popularity(recipes: DataFrame): DataFrame = {
    val freq = recipes.select("region", "recipe_id", "ing_id").distinct()
      .groupBy("region", "ing_id").agg(count(lit(1)).as("freq"))
    val w = Window.partitionBy("region").orderBy(col("freq").desc, col("ing_id"))
    freq.withColumn("rank", row_number().over(w))
      .withColumn("norm_freq",
        col("freq") / max("freq").over(Window.partitionBy("region")))
  }

  /** Least-squares slope of ln(norm_freq) vs ln(rank) per region — the
    * scaling exponent of the popularity curve (the paper reports an
    * "exceptionally consistent" pattern across cuisines).
    */
  def popularitySlope(recipes: DataFrame): DataFrame =
    popularity(recipes)
      .select(col("region"), log(col("rank")).as("x"), log(col("norm_freq")).as("y"))
      .groupBy("region")
      .agg(((avg(col("x") * col("y")) - avg("x") * avg("y")) /
            (avg(col("x") * col("x")) - avg("x") * avg("x"))).as("slope"))

  /** Fig 2: share of recipe-ingredient slots per (region, category),
    * including a WORLD aggregate row set.
    */
  def categoryComposition(recipes: DataFrame, ingredients: DataFrame): DataFrame = {
    val slots = withWorld(recipes)
      .join(broadcast(ingredients.select("ing_id", "category")), "ing_id")
    slots.groupBy("region", "category").agg(count(lit(1)).as("uses"))
      .withColumn("share",
        col("uses") / sum("uses").over(Window.partitionBy("region")))
  }

  /** Duplicate every row under the WORLD region label (aggregate view). */
  def withWorld(recipes: DataFrame): DataFrame =
    recipes.unionByName(recipes.withColumn("region", lit(World)))
}
