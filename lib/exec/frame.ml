type abind = {
  ab_darr : Ddsm_runtime.Darray.t option;
  ab_base : int;
  ab_lowers : int array;
  ab_strides : int array;
  ab_extents : int array;
  ab_ty : Ddsm_ir.Types.ty;
}

type t = { ints : int array; floats : float array; arrays : abind array }

let create ~n_int ~n_float ~arrays =
  { ints = Array.make n_int 0; floats = Array.make n_float 0.0; arrays }

let copy_scalars t =
  { t with ints = Array.copy t.ints; floats = Array.copy t.floats }

let column_strides extents =
  let st = Array.make (Array.length extents) 1 in
  for i = 1 to Array.length extents - 1 do
    st.(i) <- st.(i - 1) * extents.(i - 1)
  done;
  st

let dummy_abind =
  {
    ab_darr = None;
    ab_base = -1;
    ab_lowers = [||];
    ab_strides = [||];
    ab_extents = [||];
    ab_ty = Ddsm_ir.Types.Treal;
  }
